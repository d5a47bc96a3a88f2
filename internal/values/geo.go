package values

import (
	"strings"
	"unicode"
)

// wktPrefixes are the WKT geometry keywords IsGeo recognizes, lowered.
var wktPrefixes = [...]string{"point", "polygon", "linestring", "multipoint", "multipolygon", "multilinestring"}

// IsGeo reports whether s looks like a geo-spatial value. The study
// recognizes the spellings that occur in OGDP CSVs:
//
//   - "lat, lon" / "lat lon" coordinate pairs with plausible ranges,
//     e.g. "43.4723, -80.5449"
//   - WKT geometry fragments, e.g. "POINT (-80.54 43.47)"
//   - GeoJSON-ish fragments beginning with {"type": "Point"
//   - Parenthesized pairs, e.g. "(43.4723, -80.5449)"
//
// WKT keywords match with ASCII case folded only: a keyword spelled
// with a rune outside ASCII, such as the dotless ı in "poınt", is no
// keyword, and such a value, starting with a letter, is no coordinate
// pair either.
func IsGeo(s string) bool {
	s = strings.TrimSpace(s)
	if len(s) < 4 {
		return false
	}
	for _, prefix := range wktPrefixes {
		if len(s) >= len(prefix) && lowerEq(s[:len(prefix)], prefix) {
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
	return isCoordPair(s)
}

// isCoordPair reports whether s is "a, b" or "a b" with a in [-90, 90]
// and b in [-180, 180], at least one of them fractional (to avoid
// classifying small integer pairs as coordinates).
func isCoordPair(s string) bool {
	a, b, ok := splitPair(s)
	if !ok {
		return false
	}
	x, ok1 := parseFloat(strings.TrimSpace(a))
	y, ok2 := parseFloat(strings.TrimSpace(b))
	if !ok1 || !ok2 {
		return false
	}
	if x < -90 || x > 90 || y < -180 || y > 180 {
		return false
	}
	return strings.ContainsRune(a, '.') || strings.ContainsRune(b, '.')
}

// splitPair splits s around its only comma or, without a comma, into
// its two space-separated fields (strings.Fields' notion of space); ok
// is false when s does not have exactly two parts.
func splitPair(s string) (a, b string, ok bool) {
	if i := strings.IndexByte(s, ','); i >= 0 {
		if strings.IndexByte(s[i+1:], ',') >= 0 {
			return "", "", false
		}
		return s[:i], s[i+1:], true
	}
	a, rest := nextField(s)
	b, rest = nextField(rest)
	return a, b, a != "" && b != "" && strings.TrimLeftFunc(rest, unicode.IsSpace) == ""
}

// nextField returns the first space-separated field of s and the rest
// of s after it.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i:]
}
