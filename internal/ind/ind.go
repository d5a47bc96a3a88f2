package ind

import "ogdp/internal/table"

// Options tunes Find.
type Options struct {
	// MinDistinct is the minimum distinct-value count of the dependent
	// (left) column; low-cardinality columns are trivially included in
	// many others. Defaults to 10, matching the paper's joinability
	// filter.
	MinDistinct int
}

func (o Options) withDefaults() Options {
	if o.MinDistinct == 0 {
		o.MinDistinct = 10
	}
	return o
}

// IND is one exact inclusion dependency: every distinct value of
// (DepTable, DepCol) appears in (RefTable, RefCol).
type IND struct {
	DepTable, DepCol int
	RefTable, RefCol int
	// RefIsKey reports whether the referenced column is a key.
	RefIsKey bool
}

// Find discovers unary inclusion dependencies between columns of
// different tables. Symmetric duplicates are reported individually:
// A ⊆ B and B ⊆ A are distinct dependencies. The result is ordered by
// dependent, then referenced, (table, column).
//
// A ⊆ B requires B to hold A's smallest value hash, so each dependent
// column is probed once, with that hash, against postings kept only
// for the dependents' smallest hashes; each column the probe returns
// is verified with table.IntersectSize. A column whose distinct count
// exceeds its hash count (a hash collision) is never a dependent, as
// it could not be reported exactly.
func Find(tables []*table.Table, opts Options) []IND {
	opts = opts.withDefaults()

	type column struct {
		t, c int
		p    *table.ColumnProfile
	}
	var cols []column
	postings := map[uint64][]int32{} // a dependent's smallest hash -> columns holding it
	for ti, t := range tables {
		for ci := range t.Cols {
			p := t.Profile(ci)
			if p.Distinct == 0 {
				continue
			}
			cols = append(cols, column{ti, ci, p})
			if p.Distinct >= opts.MinDistinct {
				postings[p.ValueHashes()[0]] = nil
			}
		}
	}
	for id, col := range cols {
		for _, h := range col.p.ValueHashes() {
			if ids, ok := postings[h]; ok {
				postings[h] = append(ids, int32(id))
			}
		}
	}

	var out []IND
	for _, dep := range cols {
		a := dep.p
		if a.Distinct < opts.MinDistinct {
			continue
		}
		for _, id := range postings[a.ValueHashes()[0]] {
			ref := cols[id]
			b := ref.p
			if ref.t == dep.t || b.Distinct < a.Distinct ||
				table.IntersectSize(a.ValueHashes(), b.ValueHashes()) != a.Distinct {
				continue
			}
			out = append(out, IND{
				DepTable: dep.t, DepCol: dep.c,
				RefTable: ref.t, RefCol: ref.c,
				RefIsKey: b.IsKey(),
			})
		}
	}
	return out
}

// ForeignKeyCandidates filters INDs to the foreign-key shape the
// paper's useful joins take: the referenced column is a key and the
// dependent column is not (a fact table referencing a lookup).
func ForeignKeyCandidates(tables []*table.Table, inds []IND) []IND {
	var out []IND
	for _, d := range inds {
		if !d.RefIsKey {
			continue
		}
		if tables[d.DepTable].Profile(d.DepCol).IsKey() {
			continue
		}
		out = append(out, d)
	}
	return out
}
