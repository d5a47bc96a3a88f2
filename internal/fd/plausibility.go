package fd

import (
	"strings"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// Plausibility scores how likely a discovered FD reflects a real
// semantic dependency rather than a statistical accident of the
// instance — the open question the paper raises in §4.3 ("how to
// differentiate between accidental vs real FDs to identify high
// quality and useful sub-tables"). The score combines instance-level
// evidence with schema-level hints:
//
//   - support: an FD witnessed by many distinct LHS values is far less
//     likely to hold by chance than one witnessed by two;
//   - violation headroom: how far the RHS is from being independent of
//     the LHS (an FD over a near-key LHS is trivially easy to satisfy);
//   - name affinity: City → Province and FundCode → FundDescription
//     style dependencies usually share name tokens or link an id/code
//     column to a description;
//   - LHS size: single-attribute FDs are the paper's dominant real
//     pattern (Table 5); wide LHSs are more often coincidences;
//   - type pattern: code/text → text lookups are the classic real
//     shape, numeric measure → numeric measure agreements usually are
//     not.
//
// The result is in [0, 1]; values above ~0.5 behave like "probably
// real" on the synthetic corpora (see the tests for calibration).
func Plausibility(t *table.Table, f FD) float64 {
	if t.NumRows() == 0 || f.RHS >= t.NumCols() {
		return 0
	}
	return PlausibilityOf(t, f, t.DistinctCount(f.LHS))
}

// PlausibilityOf is Plausibility given the FD's support, the number of
// distinct LHS tuples card(f.LHS): a Lattice that discovered f holds it
// (Lattice.Card), so scoring needs no further count.
func PlausibilityOf(t *table.Table, f FD, support int) float64 {
	if t.NumRows() == 0 || f.RHS >= t.NumCols() {
		return 0
	}
	var score float64

	// Support: distinct LHS groups, saturating at 30.
	switch {
	case support >= 30:
		score += 0.30
	case support >= 10:
		score += 0.22
	case support >= 5:
		score += 0.12
	case support >= 3:
		score += 0.05
	}

	// Headroom: compare the LHS cardinality to the row count. A
	// near-key LHS (card ≈ rows) gives each group ~1 row, so any RHS
	// trivially "depends" on it.
	rows := t.NumRows()
	if rows > 0 {
		groupSize := float64(rows) / float64(max(1, support))
		switch {
		case groupSize >= 5:
			score += 0.25
		case groupSize >= 2:
			score += 0.15
		case groupSize > 1.2:
			score += 0.05
		}
	}

	// LHS size: |LHS| = 1 is the dominant real pattern.
	switch len(f.LHS) {
	case 0, 1:
		score += 0.15
	case 2:
		score += 0.07
	}

	// Name affinity between LHS and RHS columns.
	score += 0.15 * nameAffinity(t, f)

	// Type pattern.
	score += 0.15 * typePattern(t, f)

	if score > 1 {
		score = 1
	}
	return score
}

// nameAffinity returns 1 when an LHS column shares a name stem with
// the RHS (fund_code → fund_description), 0.5 for id/code → text
// naming, else 0.
func nameAffinity(t *table.Table, f FD) float64 {
	rhsTokens := nameTokens(t.Cols[f.RHS])
	best := 0.0
	for _, c := range f.LHS {
		lhsTokens := nameTokens(t.Cols[c])
		shared := 0
		for tok := range lhsTokens {
			if _, ok := rhsTokens[tok]; ok {
				shared++
			}
		}
		if shared > 0 {
			return 1
		}
		lhsName := strings.ToLower(t.Cols[c])
		rhsName := strings.ToLower(t.Cols[f.RHS])
		if (strings.Contains(lhsName, "code") || strings.Contains(lhsName, "id") || strings.Contains(lhsName, "number")) &&
			(strings.Contains(rhsName, "desc") || strings.Contains(rhsName, "name") || strings.Contains(rhsName, "type")) {
			best = 0.5
		}
	}
	return best
}

// nameTokens is the FD-plausibility tokenizer. It is not
// table.NameTokens on purpose: it splits on digits too ("code2" gives
// "code") and keeps only tokens of three or more letters ("id" gives
// nothing). The "mean FD plausibility" report row is computed with
// this rule, so merging the two would move a paper number.
func nameTokens(name string) map[string]struct{} {
	out := map[string]struct{}{}
	for _, tok := range strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		return !(r >= 'a' && r <= 'z')
	}) {
		if len(tok) >= 3 {
			out[tok] = struct{}{}
		}
	}
	return out
}

// typePattern scores the FD's column-type shape: categorical/code →
// text lookups are the classic real dependency; measure → measure
// agreements usually are not.
func typePattern(t *table.Table, f FD) float64 {
	rhs := t.Profile(f.RHS).Type
	rhsText := rhs.IsText()
	anyLookupLHS := false
	allNumericLHS := len(f.LHS) > 0
	for _, c := range f.LHS {
		lt := t.Profile(c).Type
		if lt == values.ColCategorical || lt == values.ColString || lt == values.ColInt {
			anyLookupLHS = true
		}
		if !lt.IsNumeric() {
			allNumericLHS = false
		}
	}
	switch {
	case anyLookupLHS && rhsText:
		return 1
	case anyLookupLHS:
		return 0.6
	case allNumericLHS && rhs.IsNumeric():
		return 0.1
	default:
		return 0.3
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
