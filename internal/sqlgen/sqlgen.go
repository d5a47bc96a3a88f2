package sqlgen

import (
	"fmt"
	"sort"
	"strings"

	"ogdp/internal/ind"
	"ogdp/internal/keys"
	"ogdp/internal/table"
	"ogdp/internal/values"
)

// Options tunes Schema.
type Options struct {
	// Dialect is "sqlite" (default) or "postgres"; it only affects type
	// names.
	Dialect string
	// ForeignKeys derives FOREIGN KEY clauses from inclusion
	// dependencies between the given tables.
	ForeignKeys bool
}

// Schema renders CREATE TABLE statements for the tables. Tables
// sharing a file name (e.g. the sub-tables of one decomposition) get
// disambiguating suffixes.
func Schema(tables []*table.Table, opts Options) string {
	var b strings.Builder
	fks := map[int][]ind.IND{}
	if opts.ForeignKeys {
		// Small lookup domains are legitimate fk targets inside one
		// schema, so the corpus-level distinct filter is relaxed.
		inds := ind.Find(tables, ind.Options{MinDistinct: 2})
		for _, d := range ind.ForeignKeyCandidates(tables, inds) {
			fks[d.DepTable] = append(fks[d.DepTable], d)
		}
	}
	names := disambiguated(tables)
	for ti := range tables {
		if ti > 0 {
			b.WriteString("\n")
		}
		writeCreate(&b, tables, ti, names, fks[ti], opts)
	}
	return b.String()
}

// disambiguated assigns unique SQL table names: duplicates are
// suffixed with their key column when one exists, else a counter.
func disambiguated(tables []*table.Table) []string {
	names := make([]string, len(tables))
	used := map[string]int{}
	for ti, t := range tables {
		base := tableName(t.Name)
		used[base]++
		names[ti] = base
	}
	seen := map[string]int{}
	for ti, t := range tables {
		base := tableName(t.Name)
		if used[base] == 1 {
			continue
		}
		if ks := keys.KeyColumns(t); len(ks) > 0 {
			names[ti] = base + "_by_" + strings.ToLower(t.Cols[ks[0]])
		}
		seen[names[ti]]++
		if seen[names[ti]] > 1 {
			names[ti] = fmt.Sprintf("%s_%d", names[ti], seen[names[ti]])
		}
	}
	return names
}

func writeCreate(b *strings.Builder, tables []*table.Table, ti int, names []string, fks []ind.IND, opts Options) {
	t := tables[ti]
	fmt.Fprintf(b, "CREATE TABLE %s (\n", Identifier(names[ti]))

	var lines []string
	for c := range t.Cols {
		p := t.Profile(c)
		line := fmt.Sprintf("  %s %s", Identifier(t.Cols[c]), sqlType(p.Type, opts.Dialect))
		if p.Nulls == 0 && t.NumRows() > 0 {
			line += " NOT NULL"
		}
		lines = append(lines, line)
	}

	if key := keys.MinCandidateKey(t, keys.MaxCandidateKeySize, t.DistinctCount); key != nil {
		var names []string
		for _, c := range key {
			names = append(names, Identifier(t.Cols[c]))
		}
		lines = append(lines, fmt.Sprintf("  PRIMARY KEY (%s)", strings.Join(names, ", ")))
	}

	// One FK per dependent column: prefer the reference with the
	// fewest rows (the most lookup-like target).
	seenDep := map[int]bool{}
	sort.Slice(fks, func(i, j int) bool {
		return tables[fks[i].RefTable].NumRows() < tables[fks[j].RefTable].NumRows()
	})
	for _, d := range fks {
		if seenDep[d.DepCol] {
			continue
		}
		seenDep[d.DepCol] = true
		ref := tables[d.RefTable]
		lines = append(lines, fmt.Sprintf("  FOREIGN KEY (%s) REFERENCES %s (%s)",
			Identifier(t.Cols[d.DepCol]), Identifier(names[d.RefTable]), Identifier(ref.Cols[d.RefCol])))
	}

	b.WriteString(strings.Join(lines, ",\n"))
	b.WriteString("\n);\n")
}

// sqlType maps an inferred column type to a SQL type name.
func sqlType(t values.ColumnType, dialect string) string {
	pg := dialect == "postgres"
	switch t {
	case values.ColIncrementalInt, values.ColInt:
		if pg {
			return "BIGINT"
		}
		return "INTEGER"
	case values.ColFloat:
		if pg {
			return "DOUBLE PRECISION"
		}
		return "REAL"
	case values.ColBool:
		return "BOOLEAN"
	case values.ColTimestamp:
		if pg {
			return "TIMESTAMP"
		}
		return "TEXT" // SQLite stores datetimes as text
	default:
		return "TEXT"
	}
}

// Identifier quotes a SQL identifier, normalizing it to
// lower_snake_case first.
func Identifier(name string) string {
	var b strings.Builder
	prevUnderscore := false
	for _, r := range strings.TrimSpace(strings.ToLower(name)) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			prevUnderscore = false
		default:
			if !prevUnderscore && b.Len() > 0 {
				b.WriteByte('_')
				prevUnderscore = true
			}
		}
	}
	s := strings.Trim(b.String(), "_")
	if s == "" {
		s = "col"
	}
	if s[0] >= '0' && s[0] <= '9' {
		s = "t_" + s
	}
	return `"` + s + `"`
}

// tableName strips the .csv suffix.
func tableName(name string) string {
	return strings.TrimSuffix(name, ".csv")
}
