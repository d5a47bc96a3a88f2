// Package csvio parses CSV resources into tables, reproducing the
// paper's processing pipeline (§2.2):
//
//  1. determine the number of columns from the first 500 rows,
//  2. pick the first row with no missing value as the header,
//  3. parse the remaining rows,
//  4. drop trailing entirely-empty columns,
//  5. reject very wide tables (≥ 100 columns by default), which are
//     overwhelmingly malformed or transposed publications.
package csvio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// Default pipeline parameters from the paper.
const (
	// DefaultHeaderScanRows is how many leading rows the header
	// inference examines.
	DefaultHeaderScanRows = 500
	// DefaultMaxColumns is the wide-table cutoff: tables with at least
	// this many columns are rejected.
	DefaultMaxColumns = 100
)

// Options configures Read.
type Options struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// HeaderScanRows overrides DefaultHeaderScanRows; 0 keeps the default.
	HeaderScanRows int
	// MaxColumns overrides DefaultMaxColumns; 0 keeps the default,
	// negative disables the cutoff.
	MaxColumns int
	// MaxRows, when positive, truncates the table after that many data
	// rows (useful for sampling very large resources).
	MaxRows int
	// KeepEmptyTrailingColumns disables cleaning step 4.
	KeepEmptyTrailingColumns bool
}

func (o Options) withDefaults() Options {
	if o.Comma == 0 {
		o.Comma = ','
	}
	if o.HeaderScanRows == 0 {
		o.HeaderScanRows = DefaultHeaderScanRows
	}
	if o.MaxColumns == 0 {
		o.MaxColumns = DefaultMaxColumns
	}
	return o
}

// Pipeline failure modes. A resource that fails any step is not
// "readable" in the paper's terminology.
var (
	ErrEmpty    = errors.New("csvio: no rows")
	ErrNoHeader = errors.New("csvio: no plausible header row")
	ErrTooWide  = errors.New("csvio: table exceeds the wide-table cutoff")
)

// Read parses one CSV document into a table using default options.
func Read(name string, r io.Reader) (*table.Table, error) {
	return ReadWith(name, r, Options{})
}

// ReadBytes parses an in-memory CSV document.
func ReadBytes(name string, data []byte) (*table.Table, error) {
	return ReadWith(name, strings.NewReader(string(data)), Options{})
}

// ReadWith parses one CSV document into a table.
func ReadWith(name string, r io.Reader, opts Options) (*table.Table, error) {
	opts = opts.withDefaults()

	cr := csv.NewReader(r)
	cr.Comma = opts.Comma
	cr.FieldsPerRecord = -1 // tolerate ragged rows; we fix widths ourselves
	cr.LazyQuotes = true

	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: parsing %s: %w", name, err)
		}
		records = append(records, rec)
		if opts.MaxRows > 0 && len(records) > opts.MaxRows+opts.HeaderScanRows {
			break
		}
	}
	if len(records) == 0 {
		return nil, ErrEmpty
	}

	width := inferWidth(records, opts.HeaderScanRows)
	if opts.MaxColumns > 0 && width >= opts.MaxColumns {
		return nil, fmt.Errorf("%w: %d columns", ErrTooWide, width)
	}

	headerIdx := inferHeader(records, width, opts.HeaderScanRows)
	if headerIdx < 0 {
		return nil, ErrNoHeader
	}

	header := normalizeRow(records[headerIdx], width)
	for i, h := range header {
		header[i] = strings.TrimSpace(h)
		if header[i] == "" {
			header[i] = fmt.Sprintf("column_%d", i+1)
		}
	}

	data := make([][]string, width)
	for c := range data {
		data[c] = make([]string, 0, len(records)-headerIdx-1)
	}
	var ragged table.RaggedCells
	for r := headerIdx + 1; r < len(records); r++ {
		if d := len(records[r]) - width; d > 0 {
			ragged.Truncated += d
		} else if d < 0 {
			ragged.Padded -= d
		}
		row := normalizeRow(records[r], width)
		for c := 0; c < width; c++ {
			data[c] = append(data[c], row[c])
		}
		if opts.MaxRows > 0 && r-headerIdx >= opts.MaxRows {
			break
		}
	}

	if !opts.KeepEmptyTrailingColumns {
		header, data = trimTrailingEmptyColumns(header, data)
		if len(header) == 0 {
			// Every column was entirely null: nothing readable remains.
			return nil, ErrEmpty
		}
	}
	t := table.New(name, header, data)
	t.Ragged = ragged
	return t, nil
}

// inferWidth determines the table's column count: the most common
// record length among the first scanRows records, ties broken toward
// the wider record (headers and data rows agree in well-formed files).
func inferWidth(records [][]string, scanRows int) int {
	n := len(records)
	if n > scanRows {
		n = scanRows
	}
	counts := make(map[int]int)
	for _, rec := range records[:n] {
		counts[len(rec)]++
	}
	best, bestN := 0, 0
	for w, c := range counts {
		if c > bestN || (c == bestN && w > best) {
			best, bestN = w, c
		}
	}
	return best
}

// inferHeader returns the index of the first record, among the first
// scanRows, that has exactly the inferred width and no missing value
// (§2.2 of the paper). Returns -1 when none qualifies.
func inferHeader(records [][]string, width int, scanRows int) int {
	n := len(records)
	if n > scanRows {
		n = scanRows
	}
	for i := 0; i < n; i++ {
		rec := records[i]
		if len(rec) != width {
			continue
		}
		ok := true
		for _, v := range rec {
			if values.IsNull(v) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// normalizeRow pads or truncates rec to width cells.
func normalizeRow(rec []string, width int) []string {
	if len(rec) == width {
		return rec
	}
	out := make([]string, width)
	copy(out, rec)
	return out
}

// trimTrailingEmptyColumns drops the suffix of columns whose every
// cell is null, a publication artifact the paper reports (§2.2).
func trimTrailingEmptyColumns(header []string, data [][]string) ([]string, [][]string) {
	if len(data) == 0 || len(data[0]) == 0 {
		return header, data // a header-only table keeps its columns
	}
	keep := len(header)
	for keep > 0 && allNull(data[keep-1]) {
		keep--
	}
	return header[:keep], data[:keep]
}

// allNull reports whether every cell of col is null.
func allNull(col []string) bool {
	for _, v := range col {
		if !values.IsNull(v) {
			return false
		}
	}
	return true
}

// Write serializes a table as CSV (header first).
func Write(w io.Writer, t *table.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Cols); err != nil {
		return err
	}
	// Column materializes encoding-backed tables before the cell loop.
	cols := make([][]string, t.NumCols())
	for c := range cols {
		cols[c] = t.Column(c)
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := range row {
			row[c] = cols[c][r]
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bytes serializes a table as CSV into memory.
func Bytes(t *table.Table) []byte {
	var b strings.Builder
	if err := Write(&b, t); err != nil {
		// strings.Builder never fails; csv.Writer only reports writer errors.
		panic(err)
	}
	return []byte(b.String())
}
