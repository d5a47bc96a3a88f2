package normalize

import "ogdp/internal/table"

// SchemaNameSimilarity measures how similar two schemas' column names
// are: the Jaccard similarity of their normalized name-token sets.
// Names are case-folded and split on non-alphanumeric runs, so
// "Species_ID" and "species id" contribute the same tokens; purely
// numeric tokens are dropped so periodic suffixes ("2019", "part2") do
// not dominate. The score is a ranked-search signal: schemas that
// describe the same kind of record share most name tokens even when
// column order or exact spelling differs, which is the schema-level
// half of an integration hypothesis (the value-level half is measured
// on the column contents).
func SchemaNameSimilarity(a, b []string) float64 {
	ta := schemaTokens(a)
	tb := schemaTokens(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for tok := range ta {
		if _, ok := tb[tok]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// schemaTokens is the normalized token set of a column-name list.
func schemaTokens(cols []string) map[string]struct{} {
	out := map[string]struct{}{}
	for _, name := range cols {
		for _, tok := range table.NameTokens(name) {
			out[tok] = struct{}{}
		}
	}
	return out
}
