package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"ogdp/internal/table"
	"ogdp/internal/values"
)

// OracleReadWith is ReadWith as it was before the one-scan pipeline:
// every record is held, then copied into columns, and trailing null
// columns are found by scanning the built columns. It is kept verbatim
// except for the oracle prefix on its helpers; FuzzReadCSV holds
// ReadWith and ReadShape to it.
func OracleReadWith(name string, r io.Reader, opts Options) (*table.Table, error) {
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

	width := oracleInferWidth(records, opts.HeaderScanRows)
	if opts.MaxColumns > 0 && width >= opts.MaxColumns {
		return nil, fmt.Errorf("%w: %d columns", ErrTooWide, width)
	}

	headerIdx := oracleInferHeader(records, width, opts.HeaderScanRows)
	if headerIdx < 0 {
		return nil, ErrNoHeader
	}

	header := oracleNormalizeRow(records[headerIdx], width)
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
		row := oracleNormalizeRow(records[r], width)
		for c := 0; c < width; c++ {
			data[c] = append(data[c], row[c])
		}
		if opts.MaxRows > 0 && r-headerIdx >= opts.MaxRows {
			break
		}
	}

	if !opts.KeepEmptyTrailingColumns {
		header, data = oracleTrimTrailingEmptyColumns(header, data)
		if len(header) == 0 {
			// Every column was entirely null: nothing readable remains.
			return nil, ErrEmpty
		}
	}
	t := table.New(name, header, data)
	t.Ragged = ragged
	return t, nil
}

func oracleInferWidth(records [][]string, scanRows int) int {
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

func oracleInferHeader(records [][]string, width int, scanRows int) int {
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

func oracleNormalizeRow(rec []string, width int) []string {
	if len(rec) == width {
		return rec
	}
	out := make([]string, width)
	copy(out, rec)
	return out
}

func oracleTrimTrailingEmptyColumns(header []string, data [][]string) ([]string, [][]string) {
	if len(data) == 0 || len(data[0]) == 0 {
		return header, data // a header-only table keeps its columns
	}
	keep := len(header)
	for keep > 0 && oracleAllNull(data[keep-1]) {
		keep--
	}
	return header[:keep], data[:keep]
}

func oracleAllNull(col []string) bool {
	for _, v := range col {
		if !values.IsNull(v) {
			return false
		}
	}
	return true
}
