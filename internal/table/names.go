package table

import "strings"

// NameTokens splits a table or column name into normalized tokens:
// lower-case alphanumeric runs, with purely numeric runs dropped so
// periodic suffixes ("2019", "_2") do not dominate. Case and separator
// spellings fold together: "Species_ID" and "species id" give the same
// tokens. Schema-name similarity (normalize) and union-candidate name
// overlap (rank) both tokenize through it.
func NameTokens(name string) []string {
	fields := strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if isDigits(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// isDigits reports whether s is a non-empty digit run.
func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}
