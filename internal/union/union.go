// Package union finds unionable tables the way the paper does (§6):
// two tables are unionable when their schemas — column names and data
// types, in order — are exactly the same. The analysis groups tables
// by schema identity and reports the statistics of Table 11: how many
// tables are unionable, the degree (set size) distribution, how many
// distinct schemas exist, how many are shared, and whether a shared
// schema's tables all live in one dataset.
package union

import (
	"sort"

	"ogdp/internal/table"
)

// Group is one set of mutually unionable tables (≥ 2 members).
type Group struct {
	// SchemaKey is the canonical schema identity.
	SchemaKey string
	// Tables are indices into the analyzed corpus.
	Tables []int
	// Datasets is the number of distinct datasets the members are
	// published under.
	Datasets int
}

// SingleDataset reports whether every member of the group is published
// under the same dataset.
func (g *Group) SingleDataset() bool { return g.Datasets == 1 }

// Analysis is the result of the unionability study over a corpus.
type Analysis struct {
	// Tables is the analyzed corpus.
	Tables []*table.Table
	// Groups are the unionable sets, largest first.
	Groups []Group
	// UniqueSchemas is the number of distinct schemas in the corpus.
	UniqueSchemas int
}

// Find groups the corpus by exact schema identity.
func Find(tables []*table.Table) *Analysis {
	a := &Analysis{Tables: tables}
	bySchema := make(map[string][]int)
	for i, t := range tables {
		if t.NumCols() == 0 {
			continue
		}
		key := t.SchemaKey()
		bySchema[key] = append(bySchema[key], i)
	}
	a.UniqueSchemas = len(bySchema)
	for key, members := range bySchema {
		if len(members) < 2 {
			continue
		}
		datasets := make(map[string]struct{})
		for _, ti := range members {
			datasets[tables[ti].DatasetID] = struct{}{}
		}
		sort.Ints(members)
		a.Groups = append(a.Groups, Group{
			SchemaKey: key,
			Tables:    members,
			Datasets:  len(datasets),
		})
	}
	sort.Slice(a.Groups, func(i, j int) bool {
		if len(a.Groups[i].Tables) != len(a.Groups[j].Tables) {
			return len(a.Groups[i].Tables) > len(a.Groups[j].Tables)
		}
		return a.Groups[i].SchemaKey < a.Groups[j].SchemaKey
	})
	return a
}

// UnionableTables returns the number of tables that belong to some
// unionable group.
func (a *Analysis) UnionableTables() int {
	n := 0
	for _, g := range a.Groups {
		n += len(g.Tables)
	}
	return n
}

// Degrees returns, for every unionable table, the number of other
// tables it unions with (group size − 1).
func (a *Analysis) Degrees() []int {
	var out []int
	for _, g := range a.Groups {
		for range g.Tables {
			out = append(out, len(g.Tables)-1)
		}
	}
	return out
}

// SingleDatasetGroups counts unionable groups confined to one dataset.
func (a *Analysis) SingleDatasetGroups() int {
	n := 0
	for _, g := range a.Groups {
		if g.SingleDataset() {
			n++
		}
	}
	return n
}

// Union concatenates the rows of the group's member tables into one
// table (the union-all of the set). All members must share the schema;
// the first member supplies the column names.
func (a *Analysis) Union(g Group) *table.Table {
	if len(g.Tables) == 0 {
		return table.New("union", nil, nil)
	}
	first := a.Tables[g.Tables[0]]
	rows := 0
	for _, ti := range g.Tables {
		rows += a.Tables[ti].NumRows()
	}
	data := make([][]string, first.NumCols())
	for c := range data {
		col := make([]string, 0, rows)
		for _, ti := range g.Tables {
			col = append(col, a.Tables[ti].Column(c)...)
		}
		data[c] = col
	}
	return table.New("union", first.Cols, data)
}
