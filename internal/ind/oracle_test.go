package ind

import (
	"sort"

	"ogdp/internal/table"
)

// oracleFind is Find as it was before the one-probe search: a posting
// list over every value hash of every column, then a count map per
// dependent column. It is kept verbatim except that only exact INDs
// are reported (MaxViolations 0, no RequireKeyReferenced) and the
// Missing and Coverage fields, always 0 and 1 for those, are gone.
func oracleFind(tables []*table.Table, opts Options) []IND {
	opts = opts.withDefaults()

	type colRef struct{ t, c int }
	// Posting lists over distinct values.
	postings := map[uint64][]int32{}
	var cols []colRef
	var profiles []*table.ColumnProfile
	for ti, t := range tables {
		for ci := range t.Cols {
			p := t.Profile(ci)
			if p.Distinct == 0 {
				continue
			}
			id := int32(len(cols))
			cols = append(cols, colRef{ti, ci})
			profiles = append(profiles, p)
			for _, h := range p.ValueHashes() {
				postings[h] = append(postings[h], id)
			}
		}
	}

	var out []IND
	for depID, dep := range cols {
		p := profiles[depID]
		if p.Distinct < opts.MinDistinct {
			continue
		}
		// Count how many of dep's distinct values each candidate holds.
		counts := map[int32]int{}
		for _, h := range p.ValueHashes() {
			for _, id := range postings[h] {
				if int(id) == depID || cols[id].t == dep.t {
					continue
				}
				counts[id]++
			}
		}
		for id, inter := range counts {
			missing := p.Distinct - inter
			if missing > 0 {
				continue
			}
			refP := profiles[id]
			refIsKey := refP.IsKey()
			out = append(out, IND{
				DepTable: dep.t, DepCol: dep.c,
				RefTable: cols[id].t, RefCol: cols[id].c,
				RefIsKey: refIsKey,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.DepTable != b.DepTable {
			return a.DepTable < b.DepTable
		}
		if a.DepCol != b.DepCol {
			return a.DepCol < b.DepCol
		}
		if a.RefTable != b.RefTable {
			return a.RefTable < b.RefTable
		}
		return a.RefCol < b.RefCol
	})
	return out
}
