package values

// This file keeps the cell classifier as it was before it learned to
// skip parsers that provably cannot accept a value: the bodies below
// are verbatim copies, renamed with an oracle prefix. The differential
// tests in classify_test.go hold the current classifier to them.

import (
	"strconv"
	"strings"
	"time"
)

// Exported for the external differential tests, which seed from the
// corpus generator (an internal test here could not import it).
var (
	IsBool               = isBool
	OracleIsNull         = oracleIsNull
	OracleKindOf         = oracleKindOf
	OracleIsBool         = oracleIsBool
	OracleParseInt       = oracleParseInt
	OracleParseFloat     = oracleParseFloat
	OracleParseTimestamp = oracleParseTimestamp
	OracleIsGeo          = oracleIsGeo
	OracleInferCounted   = oracleInferCounted
)

var oracleNullSet = func() map[string]struct{} {
	m := make(map[string]struct{}, len(NullTokens))
	for _, t := range NullTokens {
		m[t] = struct{}{}
	}
	return m
}()

// oracleIsNull reports whether the raw CSV cell value denotes a missing value.
// Matching is case-insensitive and ignores surrounding whitespace.
func oracleIsNull(s string) bool {
	if s == "" {
		return true
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return true
	}
	if len(s) > 4 { // longest token is "null"/"n/a" variants; avoids lowering long strings
		return false
	}
	_, ok := oracleNullSet[strings.ToLower(s)]
	return ok
}

// oracleKindOf classifies a single raw cell value.
func oracleKindOf(s string) Kind {
	if oracleIsNull(s) {
		return KindNull
	}
	s = strings.TrimSpace(s)
	if oracleIsBool(s) {
		return KindBool
	}
	if _, ok := oracleParseInt(s); ok {
		return KindInt
	}
	if _, ok := oracleParseFloat(s); ok {
		return KindFloat
	}
	if oracleIsTimestamp(s) {
		return KindTimestamp
	}
	if oracleIsGeo(s) {
		return KindGeo
	}
	return KindString
}

func oracleIsBool(s string) bool {
	switch strings.ToLower(s) {
	case "true", "false", "yes", "no", "y", "n":
		return true
	}
	return false
}

// oracleParseInt parses s as an integer, tolerating thousands separators
// ("1,234") and a leading sign. It reports ok=false for anything else.
func oracleParseInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	if strings.ContainsRune(s, ',') {
		if !oracleValidThousands(s) {
			return 0, false
		}
		s = strings.ReplaceAll(s, ",", "")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// oracleValidThousands reports whether s is an integer with correctly placed
// thousands separators, e.g. "1,234,567".
func oracleValidThousands(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	groups := strings.Split(s, ",")
	if len(groups) < 2 {
		return false
	}
	if len(groups[0]) == 0 || len(groups[0]) > 3 {
		return false
	}
	for _, g := range groups[1:] {
		if len(g) != 3 {
			return false
		}
	}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			if g[i] < '0' || g[i] > '9' {
				return false
			}
		}
	}
	return true
}

// oracleParseFloat parses s as a floating point number (not an integer),
// tolerating thousands separators and a trailing '%'.
func oracleParseFloat(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	if strings.HasSuffix(s, "%") {
		s = strings.TrimSuffix(s, "%")
	}
	if strings.ContainsRune(s, ',') {
		// Only strip commas when they look like thousands separators of
		// the integer part.
		intPart := s
		if i := strings.IndexByte(s, '.'); i >= 0 {
			intPart = s[:i]
		}
		if !oracleValidThousands(intPart) {
			return 0, false
		}
		s = strings.ReplaceAll(s, ",", "")
	}
	if !strings.ContainsAny(s, ".eE") {
		return 0, false // plain integers are KindInt, not KindFloat
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// oracleTimestampLayouts are the date/time layouts the study recognizes. They
// cover the formats that dominate OGDP CSVs: ISO dates, ISO datetimes,
// RFC 3339, North-American and European slash dates, and month-level
// dates such as "2006-01" used by periodically published tables.
var oracleTimestampLayouts = []string{
	"2006-01-02",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	time.RFC3339,
	"01/02/2006",
	"02/01/2006",
	"01/02/2006 15:04",
	"2006/01/02",
	"2006-01",
	"Jan 2, 2006",
	"2 Jan 2006",
	"January 2, 2006",
	"02-Jan-2006",
	"20060102",
}

// oracleIsTimestamp reports whether s parses as a date or datetime in one of
// the recognized layouts. Bare integers are never timestamps (years such
// as "2020" are classified as integers, matching the paper's treatment
// of year columns as integer/incremental-integer domains).
func oracleIsTimestamp(s string) bool {
	_, ok := oracleParseTimestamp(s)
	return ok
}

// oracleParseTimestamp parses s in the first matching recognized layout.
func oracleParseTimestamp(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if len(s) < 6 || len(s) > 35 {
		return time.Time{}, false
	}
	// Quick reject: must contain a separator or be an 8-digit basic date.
	if !strings.ContainsAny(s, "-/:, ") && !(len(s) == 8 && oracleAllDigits(s)) {
		return time.Time{}, false
	}
	for _, layout := range oracleTimestampLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

func oracleAllDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// oracleIsGeo reports whether s looks like a geo-spatial value. The study
// recognizes the spellings that occur in OGDP CSVs:
//
//   - "lat, lon" / "lat lon" coordinate pairs with plausible ranges,
//     e.g. "43.4723, -80.5449"
//   - WKT geometry fragments, e.g. "POINT (-80.54 43.47)"
//   - GeoJSON-ish fragments beginning with {"type": "Point"
//   - Parenthesized pairs, e.g. "(43.4723, -80.5449)"
func oracleIsGeo(s string) bool {
	s = strings.TrimSpace(s)
	if len(s) < 4 {
		return false
	}
	upper := strings.ToUpper(s)
	for _, prefix := range []string{"POINT", "POLYGON", "LINESTRING", "MULTIPOINT", "MULTIPOLYGON", "MULTILINESTRING"} {
		if strings.HasPrefix(upper, prefix) {
			rest := strings.TrimSpace(s[len(prefix):])
			return strings.HasPrefix(rest, "(")
		}
	}
	if strings.HasPrefix(s, "{") && strings.Contains(s, `"type"`) && strings.Contains(s, `"coordinates"`) {
		return true
	}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		s = strings.TrimSpace(s[1 : len(s)-1])
	}
	return oracleIsCoordPair(s)
}

// oracleIsCoordPair reports whether s is "a, b" or "a b" with a in [-90, 90]
// and b in [-180, 180], at least one of them fractional (to avoid
// classifying small integer pairs as coordinates).
func oracleIsCoordPair(s string) bool {
	var parts []string
	if strings.ContainsRune(s, ',') {
		parts = strings.SplitN(s, ",", 3)
	} else {
		parts = strings.Fields(s)
	}
	if len(parts) != 2 {
		return false
	}
	a, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	b, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil {
		return false
	}
	if a < -90 || a > 90 || b < -180 || b > 180 {
		return false
	}
	return strings.ContainsRune(parts[0], '.') || strings.ContainsRune(parts[1], '.')
}

// oracleInferCounted determines the column-level type from a column's
// dictionary encoding: the distinct raw values with their
// multiplicities. It returns exactly what InferWith returns on the
// expanded column but classifies each distinct value once, which is
// what makes profiling repetitive columns cheap.
func oracleInferCounted(distinct []string, counts []int32, opts InferOptions) ColumnType {
	opts = opts.withDefaults()

	var (
		nonNull             int
		nBool, nInt, nFloat int
		nTime, nGeo         int
		intMin, intMax      int64
		intSeen             bool
		nDistinct           int
		intDistinct         int // distinct values oracleParseInt accepts, for isIncremental
		sumLen              int // total length of distinct non-null values, for shortValues
	)
	for i, v := range distinct {
		mult := 1
		if counts != nil {
			mult = int(counts[i])
		}
		if mult <= 0 || oracleIsNull(v) {
			continue
		}
		nonNull += mult
		nDistinct++
		sumLen += len(v)
		if _, ok := oracleParseInt(v); ok {
			intDistinct++
		}
		switch oracleKindOf(v) {
		case KindBool:
			nBool += mult
		case KindInt:
			nInt += mult
			n, _ := oracleParseInt(v)
			if !intSeen || n < intMin {
				intMin = n
			}
			if !intSeen || n > intMax {
				intMax = n
			}
			intSeen = true
		case KindFloat:
			nFloat += mult
		case KindTimestamp:
			nTime += mult
		case KindGeo:
			nGeo += mult
		}
	}
	if nonNull == 0 {
		return ColAllNull
	}
	need := int(opts.Dominance * float64(nonNull))
	if need < 1 {
		need = 1
	}
	switch {
	case nBool >= need:
		return ColBool
	case nInt >= need:
		if isIncremental(intDistinct, intMin, intMax, opts.IncrementalSlack) {
			return ColIncrementalInt
		}
		return ColInt
	case nInt+nFloat >= need:
		return ColFloat
	case nTime >= need:
		return ColTimestamp
	case nGeo >= need:
		return ColGeo
	}
	// Text column: categorical if it has few distinct values that
	// repeat, or if it is the column of a closed-domain lookup table
	// (roughly one row per value over a small vocabulary).
	score := float64(nDistinct) / float64(nonNull)
	if nDistinct <= categoricalMaxUnique && score <= categoricalMaxScore {
		return ColCategorical
	}
	if nDistinct <= categoricalLookupMaxUnique && nonNull <= 2*nDistinct && nDistinct > 0 && sumLen/nDistinct <= 24 {
		return ColCategorical
	}
	return ColString
}
