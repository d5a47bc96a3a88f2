// Package sniff detects the true format of a downloaded resource from
// its content, standing in for the libmagic step of the paper's
// pipeline (§2.2): resources advertised as CSV in portal metadata are
// frequently HTML error pages, PDFs, spreadsheets, or archives, and
// must be filtered out before parsing.
package sniff

import (
	"bytes"
	"strings"
)

// Format is a detected file format.
type Format int

// Detected formats.
const (
	FormatUnknown Format = iota
	FormatEmpty
	FormatCSV
	FormatTSV
	FormatHTML
	FormatXML
	FormatJSON
	FormatPDF
	FormatZIP
	FormatGZIP
	FormatXLSX
	FormatBinary
)

var formatNames = [...]string{
	"unknown", "empty", "csv", "tsv", "html", "xml", "json",
	"pdf", "zip", "gzip", "xlsx", "binary",
}

func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return "invalid"
}

// IsTabular reports whether the format is parseable as delimited text.
func (f Format) IsTabular() bool { return f == FormatCSV || f == FormatTSV }

// sniffLimit bounds how much of the content Detect inspects.
const sniffLimit = 64 << 10

// markupPrefixLimit bounds how many leading bytes Detect lowercases to
// match the HTML and XML prefixes.
const markupPrefixLimit = 64

// Detect determines the format of data by magic bytes first and content
// heuristics second.
func Detect(data []byte) Format {
	if len(data) == 0 {
		return FormatEmpty
	}
	if len(data) > sniffLimit {
		data = data[:sniffLimit]
	}

	switch {
	case bytes.HasPrefix(data, []byte("%PDF")):
		return FormatPDF
	case bytes.HasPrefix(data, []byte{0x1f, 0x8b}):
		return FormatGZIP
	case bytes.HasPrefix(data, []byte("PK\x03\x04")):
		if looksLikeXLSX(data) {
			return FormatXLSX
		}
		return FormatZIP
	}

	trimmed := bytes.TrimLeft(data, " \t\r\n\uFEFF")
	if len(trimmed) == 0 {
		return FormatEmpty
	}
	// The markup prefixes below are at most 14 bytes; lowercasing 64
	// leading bytes yields at least 14 intact bytes even when every
	// rune is 4 bytes wide and lowercases to 1.
	lower := bytes.ToLower(trimmed[:min(len(trimmed), markupPrefixLimit)])
	switch {
	case bytes.HasPrefix(lower, []byte("<!doctype html")),
		bytes.HasPrefix(lower, []byte("<html")),
		bytes.HasPrefix(lower, []byte("<head")),
		bytes.HasPrefix(lower, []byte("<body")):
		return FormatHTML
	case bytes.HasPrefix(lower, []byte("<?xml")), bytes.HasPrefix(lower, []byte("<rss")):
		return FormatXML
	}
	if trimmed[0] == '{' || trimmed[0] == '[' {
		if looksLikeJSON(trimmed) {
			return FormatJSON
		}
	}

	if !looksLikeText(data) {
		return FormatBinary
	}
	if f, ok := sniffDelimited(string(data)); ok {
		return f
	}
	return FormatUnknown
}

// looksLikeXLSX detects the xlsx container: a zip whose first entry is
// [Content_Types].xml or that mentions the xl/ directory.
func looksLikeXLSX(data []byte) bool {
	return bytes.Contains(data, []byte("[Content_Types].xml")) || bytes.Contains(data, []byte("xl/"))
}

// looksLikeJSON cheaply verifies that the bracket structure opens a
// plausible JSON document (quote or bracket follows the opener).
func looksLikeJSON(data []byte) bool {
	for _, b := range data[1:] {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '"', '{', '[', '}', ']':
			return true
		default:
			// JSON arrays may start with numbers/true/false/null.
			return data[0] == '[' && (b == '-' || (b >= '0' && b <= '9') || b == 't' || b == 'f' || b == 'n')
		}
	}
	return false
}

// looksLikeText reports whether the sample is overwhelmingly printable
// text (allowing standard whitespace); control and NUL bytes mark the
// content binary.
func looksLikeText(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	bad := 0
	for _, b := range data {
		switch {
		case b == 0:
			return false
		case b == '\n' || b == '\r' || b == '\t':
		case b < 0x20:
			bad++
		}
	}
	return float64(bad) <= 0.01*float64(len(data))
}

// sniffDelimited decides between CSV and TSV by checking for a
// consistent delimiter count across the first lines.
func sniffDelimited(s string) (Format, bool) {
	lines := strings.Split(s, "\n")
	if len(lines) > 20 {
		lines = lines[:20]
	}
	// Drop a trailing partial line (we may have truncated mid-line).
	if len(lines) > 1 {
		lines = lines[:len(lines)-1]
	}
	var kept []string
	for _, ln := range lines {
		ln = strings.TrimRight(ln, "\r")
		if ln != "" {
			kept = append(kept, ln)
		}
	}
	if len(kept) == 0 {
		return FormatUnknown, false
	}
	if consistentDelimiter(kept, ',') {
		return FormatCSV, true
	}
	if consistentDelimiter(kept, '\t') {
		return FormatTSV, true
	}
	// A single-column CSV has no delimiters at all; accept short lines
	// with no structure only if there are several of them.
	if len(kept) >= 3 {
		single := true
		for _, ln := range kept {
			if strings.ContainsAny(ln, ",\t<>{}") || len(ln) > 200 {
				single = false
				break
			}
		}
		if single {
			return FormatCSV, true
		}
	}
	return FormatUnknown, false
}

// consistentDelimiter reports whether at least 80% of lines contain the
// delimiter and the per-line counts (outside quotes) agree with the
// most common count.
func consistentDelimiter(lines []string, delim byte) bool {
	counts := make(map[int]int)
	withDelim := 0
	for _, ln := range lines {
		c := countOutsideQuotes(ln, delim)
		counts[c]++
		if c > 0 {
			withDelim++
		}
	}
	if float64(withDelim) < 0.8*float64(len(lines)) {
		return false
	}
	best, bestN := 0, 0
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	if best == 0 {
		return false
	}
	return float64(bestN) >= 0.6*float64(len(lines))
}

func countOutsideQuotes(s string, delim byte) int {
	n := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case delim:
			if !inQuote {
				n++
			}
		}
	}
	return n
}
