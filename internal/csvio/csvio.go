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
	"bytes"
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
	return ReadWith(name, bytes.NewReader(data), Options{})
}

// ReadWith parses one CSV document into a table.
func ReadWith(name string, r io.Reader, opts Options) (*table.Table, error) {
	sc, err := scan(name, r, opts, true)
	if err != nil {
		return nil, err
	}
	width, err := sc.keptCols(opts)
	if err != nil {
		return nil, err
	}
	header := make([]string, width)
	for c := range header {
		if header[c] = strings.TrimSpace(sc.header[c]); header[c] == "" {
			header[c] = fmt.Sprintf("column_%d", c+1)
		}
	}
	data := make([][]string, width)
	for c := range data {
		data[c] = make([]string, len(sc.data))
	}
	// Short rows leave their missing cells "", the padding step 1 asks
	// for; long rows lose their surplus cells.
	for r, rec := range sc.data {
		for c, v := range rec[:min(len(rec), width)] {
			data[c][r] = v
		}
	}
	t := table.New(name, header, data)
	t.Ragged = sc.ragged
	return t, nil
}

// Shape is the size of the table ReadWith would build.
type Shape struct {
	Cols, Rows int
}

// ReadShape runs ReadWith's pipeline over r and returns the shape of
// the table ReadWith would build, or ReadWith's error, without keeping
// any cell: it is what counting readable resources needs.
func ReadShape(name string, r io.Reader, opts Options) (Shape, error) {
	sc, err := scan(name, r, opts, false)
	if err != nil {
		return Shape{}, err
	}
	cols, err := sc.keptCols(opts)
	if err != nil {
		return Shape{}, err
	}
	return Shape{Cols: cols, Rows: sc.rows}, nil
}

// scanned is what scan learns about a document's data rows.
type scanned struct {
	header  []string   // the header record, width cells
	data    [][]string // the data rows, when kept
	rows    int        // data rows, at most MaxRows
	maxRows int        // MaxRows; 0 counts every row
	filled  int        // columns up to the last one holding a non-null cell
	ragged  table.RaggedCells
}

// scan runs the pipeline's row steps over r. It buffers only the first
// HeaderScanRows records, which width and header inference need. Every
// data row after the header, up to MaxRows of them, is counted and
// checked for ragged and non-null cells. With keep, later records are
// buffered too and the data rows returned; otherwise, and whenever the
// document is rejected, later records are read into one reused slice.
// Every record up to the read limit is parsed, so a parse error takes
// precedence over the wide-table and header verdicts.
func scan(name string, r io.Reader, opts Options, keep bool) (*scanned, error) {
	opts = opts.withDefaults()
	cr := csv.NewReader(r)
	cr.Comma = opts.Comma
	cr.FieldsPerRecord = -1 // tolerate ragged rows; we fix widths ourselves
	cr.LazyQuotes = true
	limit := -1 // records to read; negative reads to EOF
	if opts.MaxRows > 0 {
		limit = opts.MaxRows + opts.HeaderScanRows + 1
	}
	read := 0
	next := func() ([]string, error) {
		if read == limit {
			return nil, io.EOF
		}
		rec, err := cr.Read()
		if err == nil {
			read++
		} else if err != io.EOF {
			err = fmt.Errorf("csvio: parsing %s: %w", name, err)
		}
		return rec, err
	}

	var records [][]string
	for len(records) < opts.HeaderScanRows {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		return nil, ErrEmpty
	}
	var sc *scanned
	width := inferWidth(records)
	headerIdx := inferHeader(records, width)
	var verdict error
	switch {
	case opts.MaxColumns > 0 && width >= opts.MaxColumns:
		verdict = fmt.Errorf("%w: %d columns", ErrTooWide, width)
	case headerIdx < 0:
		verdict = ErrNoHeader
	default:
		sc = &scanned{header: records[headerIdx], maxRows: opts.MaxRows}
		for _, rec := range records[headerIdx+1:] {
			sc.add(rec)
		}
	}
	keep = keep && sc != nil
	cr.ReuseRecord = !keep
	for {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if sc != nil {
			sc.add(rec)
		}
		if keep {
			records = append(records, rec)
		}
	}
	if verdict != nil {
		return nil, verdict
	}
	if keep {
		sc.data = records[headerIdx+1:][:sc.rows]
	}
	return sc, nil
}

// add counts one data row and notes its ragged cells and its last
// non-null cell, unless MaxRows rows have been counted already.
func (sc *scanned) add(rec []string) {
	if sc.maxRows > 0 && sc.rows >= sc.maxRows {
		return
	}
	sc.rows++
	width := len(sc.header)
	if d := len(rec) - width; d > 0 {
		sc.ragged.Truncated += d
	} else if d < 0 {
		sc.ragged.Padded -= d
	}
	for c := min(len(rec), width) - 1; c >= sc.filled; c-- {
		if !values.IsNull(rec[c]) {
			sc.filled = c + 1
			break
		}
	}
}

// keptCols applies cleaning step 4: the column count left once the
// suffix of columns whose every cell is null is dropped (a publication
// artifact the paper reports, §2.2). A header-only table keeps its
// columns; one whose every column is null has nothing readable left.
func (sc *scanned) keptCols(opts Options) (int, error) {
	switch {
	case opts.KeepEmptyTrailingColumns || sc.rows == 0:
		return len(sc.header), nil
	case sc.filled == 0:
		return 0, ErrEmpty
	}
	return sc.filled, nil
}

// inferWidth determines the table's column count: the most common
// record length among the head records, ties broken toward the wider
// record (headers and data rows agree in well-formed files).
func inferWidth(head [][]string) int {
	counts := make(map[int]int)
	for _, rec := range head {
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

// inferHeader returns the index of the first head record that has
// exactly the inferred width and no missing value (§2.2 of the paper).
// Returns -1 when none qualifies.
func inferHeader(head [][]string, width int) int {
	for i, rec := range head {
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
	var b bytes.Buffer
	if err := Write(&b, t); err != nil {
		// bytes.Buffer never fails; csv.Writer only reports writer errors.
		panic(err)
	}
	return b.Bytes()
}

// Size returns the byte length of t's CSV serialization, len(Bytes(t)),
// without holding the serialization in memory.
func Size(t *table.Table) int64 {
	var n countingWriter
	if err := Write(&n, t); err != nil {
		panic(err) // countingWriter never fails
	}
	return int64(n)
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (n *countingWriter) Write(p []byte) (int, error) {
	*n += countingWriter(len(p))
	return len(p), nil
}
