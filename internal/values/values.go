package values

import (
	"strconv"
	"strings"
)

// NullTokens is the manual list of values treated as nulls, from §3.3 of
// the paper: "n/a", "n/d", "nan", "null", "-", and "...". The empty
// string (an empty CSV cell) is also a null but is checked directly.
var NullTokens = []string{"n/a", "n/d", "nan", "null", "-", "..."}

// IsNull reports whether the raw CSV cell value denotes a missing value.
// Matching is case-insensitive and ignores surrounding whitespace.
func IsNull(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return true
	}
	for _, t := range NullTokens {
		if lowerEq(s, t) {
			return true
		}
	}
	return false
}

// lowerEq reports whether s equals the lowercase ASCII word w once
// the ASCII letters of s are lowered. Unlike strings.EqualFold it folds
// nothing outside ASCII ("falſe" is not "false"). No rune outside ASCII
// lowers to a letter of the null tokens or the boolean words, so for
// those lowerEq(s, w) is strings.ToLower(s) == w without the copy.
func lowerEq(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

// Kind is the scalar kind of a single cell value.
type Kind int

// Scalar kinds, ordered roughly from most to least specific.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindTimestamp
	KindGeo
	KindString
)

var kindNames = [...]string{"null", "bool", "int", "float", "timestamp", "geo", "string"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// KindOf classifies a single raw cell value.
func KindOf(s string) Kind {
	k, _ := kindOf(s)
	return k
}

// kindOf is KindOf that also returns, for KindInt, the integer the
// trimmed value parses to, so InferCounted parses each value once.
func kindOf(s string) (Kind, int64) {
	if IsNull(s) {
		return KindNull, 0
	}
	s = strings.TrimSpace(s)
	if isBool(s) {
		return KindBool, 0
	}
	if n, ok := ParseInt(s); ok {
		return KindInt, n
	}
	if _, ok := ParseFloat(s); ok {
		return KindFloat, 0
	}
	if IsTimestamp(s) {
		return KindTimestamp, 0
	}
	if IsGeo(s) {
		return KindGeo, 0
	}
	return KindString, 0
}

var boolWords = [...]string{"true", "false", "yes", "no", "y", "n"}

func isBool(s string) bool {
	for _, w := range boolWords {
		if lowerEq(s, w) {
			return true
		}
	}
	return false
}

// ParseInt parses s as an integer, tolerating thousands separators
// ("1,234") and a leading sign. It reports ok=false for anything else.
func ParseInt(s string) (int64, bool) {
	if strings.ContainsRune(s, ',') {
		if !validThousands(s) {
			return 0, false
		}
		s = strings.ReplaceAll(s, ",", "")
	}
	// strconv accepts nothing but a signed digit run in base 10;
	// checking first spares the error value of every rejected cell.
	if !allDigits(trimSign(s)) {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// validThousands reports whether s is an integer with correctly placed
// thousands separators, e.g. "1,234,567".
func validThousands(s string) bool {
	s = trimSign(s)
	i := strings.IndexByte(s, ',')
	if i < 1 || i > 3 || !allDigits(s[:i]) {
		return false
	}
	for s = s[i+1:]; ; s = s[4:] {
		if len(s) < 3 || !allDigits(s[:3]) {
			return false
		}
		if len(s) == 3 {
			return true
		}
		if s[3] != ',' {
			return false
		}
	}
}

// ParseFloat parses s as a floating point number (not an integer),
// tolerating thousands separators and a trailing '%'.
func ParseFloat(s string) (float64, bool) {
	s = strings.TrimSuffix(s, "%")
	if strings.ContainsRune(s, ',') {
		// Only strip commas when they look like thousands separators of
		// the integer part.
		intPart := s
		if i := strings.IndexByte(s, '.'); i >= 0 {
			intPart = s[:i]
		}
		if !validThousands(intPart) {
			return 0, false
		}
		s = strings.ReplaceAll(s, ",", "")
	}
	if !strings.ContainsAny(s, ".eE") {
		return 0, false // plain integers are KindInt, not KindFloat
	}
	return parseFloat(s)
}

// parseFloat is strconv.ParseFloat(s, 64) behind mayBeFloat.
func parseFloat(s string) (float64, bool) {
	if !mayBeFloat(s) {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// mayBeFloat is a necessary condition for strconv.ParseFloat to accept
// s: after an optional sign s starts with a digit, a point, or the
// first letter of "inf" or "nan"; it holds at most one point; and every
// byte belongs to the grammar of decimal and hex floats, "infinity" and
// "nan" (digits, a-f, x, p, i, n, t, y in either case, sign, point,
// underscore).
func mayBeFloat(s string) bool {
	s = trimSign(s)
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return false
	}
	points := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			points++
		case '0' <= c && c <= '9', c == '+', c == '-', c == '_':
		default:
			// c|0x20 lowers ASCII letters and maps no other byte to one.
			switch c | 0x20 {
			case 'a', 'b', 'c', 'd', 'e', 'f', 'x', 'p', 'i', 'n', 't', 'y':
			default:
				return false
			}
		}
	}
	return points <= 1
}

// trimSign drops one leading '+' or '-'.
func trimSign(s string) string {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		return s[1:]
	}
	return s
}

// IsNumeric reports whether the value parses as an integer or a float.
func IsNumeric(s string) bool {
	if _, ok := ParseInt(s); ok {
		return true
	}
	_, ok := ParseFloat(s)
	return ok
}
