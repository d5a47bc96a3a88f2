package values

import (
	"strings"
	"time"
)

// timestampLayouts are the date/time layouts the study recognizes, in
// the order ParseTimestamp tries them. They cover the formats that
// dominate OGDP CSVs: ISO dates, ISO datetimes, RFC 3339,
// North-American and European slash dates, and month-level dates such
// as "2006-01" used by periodically published tables.
//
// Each layout carries conditions time.Parse needs the value to meet,
// so ParseTimestamp can skip a layout that could not match without
// building time.Parse's error. monthLed layouts start with a month
// name; all others start with a digit field. Where that leading field
// is fixed-width ("2006", "01", "02"), the separator after it sits at
// the same index in layout and value: sepAt names it (0 for none).
var timestampLayouts = []struct {
	layout   string
	monthLed bool
	sepAt    int
}{
	{"2006-01-02", false, 4},
	{"2006-01-02 15:04:05", false, 4},
	{"2006-01-02T15:04:05", false, 4},
	{time.RFC3339, false, 4},
	{"01/02/2006", false, 2},
	{"02/01/2006", false, 2},
	{"01/02/2006 15:04", false, 2},
	{"2006/01/02", false, 4},
	{"2006-01", false, 4},
	{"Jan 2, 2006", true, 0},
	{"2 Jan 2006", false, 0},
	{"January 2, 2006", true, 0},
	{"02-Jan-2006", false, 2},
	{"20060102", false, 0},
}

// IsTimestamp reports whether s parses as a date or datetime in one of
// the recognized layouts. Bare integers are never timestamps (years such
// as "2020" are classified as integers, matching the paper's treatment
// of year columns as integer/incremental-integer domains).
func IsTimestamp(s string) bool {
	_, ok := ParseTimestamp(s)
	return ok
}

// ParseTimestamp parses s in the first matching recognized layout.
func ParseTimestamp(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if len(s) < 6 || len(s) > 35 {
		return time.Time{}, false
	}
	// Quick reject: must contain a separator or be an 8-digit basic date.
	if !strings.ContainsAny(s, "-/:, ") && !(len(s) == 8 && allDigits(s)) {
		return time.Time{}, false
	}
	// Every layout ends in a digit field, or in RFC 3339's "Z"; fractional
	// seconds time.Parse accepts after a seconds field end in digits too.
	if last := s[len(s)-1]; !isDigit(last) && last != 'Z' {
		return time.Time{}, false
	}
	// time.Parse matches month names by their first three letters,
	// folding ASCII case, and every full month name starts with its
	// abbreviation.
	monthLed := isMonthPrefix(s)
	if !monthLed && !isDigit(s[0]) {
		return time.Time{}, false
	}
	for _, l := range timestampLayouts {
		if l.monthLed != monthLed || l.sepAt > 0 && s[l.sepAt] != l.layout[l.sepAt] {
			continue
		}
		if t, err := time.Parse(l.layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

var monthPrefixes = [...]string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}

// isMonthPrefix reports whether s, at least 3 bytes long, starts with
// a month abbreviation in any ASCII case.
func isMonthPrefix(s string) bool {
	for _, m := range monthPrefixes {
		if lowerEq(s[:3], m) {
			return true
		}
	}
	return false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return len(s) > 0
}
