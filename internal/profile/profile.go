// Package profile computes the general characteristics of a portal
// corpus reported in §3 and §4.1 of the paper: portal and table sizes
// (Tables 1–2, Figures 1–3), null value analysis (Figure 4), metadata
// availability (Table 3), compression ratios, and uniqueness/key
// statistics (Figure 5, Table 4).
package profile

import (
	"compress/gzip"
	"io"
	"sort"
	"sync"
	"time"

	"ogdp/internal/stats"
	"ogdp/internal/table"
)

// TableInfo is one corpus table with the portal-level context the
// profiling needs.
type TableInfo struct {
	Table     *table.Table
	DatasetID string
	Published time.Time
	// RawSize is the serialized CSV size in bytes.
	RawSize int64
	// CompressedBytes is the table's CompressedSize when the caller
	// measured it ahead of Sizes; 0 means not measured.
	CompressedBytes int64
	// Metadata is the dataset's dictionary style (ckan.MetadataStyle
	// as an int: 0 lacking, 1 structured, 2 unstructured, 3 outside).
	Metadata int
}

// Corpus is the profiling input: the readable tables of one portal.
type Corpus struct {
	Portal string
	Tables []TableInfo
	// Funnel carries the acquisition pipeline counts when the corpus
	// came through the CKAN client (optional).
	Funnel FunnelCounts
}

// FunnelCounts mirrors the downloadable/readable funnel of Table 1.
type FunnelCounts struct {
	Datasets     int
	Tables       int
	Downloadable int
	Readable     int
}

// PortalSizes is one portal's row of Table 1.
type PortalSizes struct {
	Portal             string
	Datasets           int
	AvgTablesPerDS     float64
	MaxTablesPerDS     int
	Tables             int
	Downloadable       int
	Readable           int
	Columns            int
	TotalBytes         int64
	CompressedBytes    int64
	LargestTableBytes  int64
	CompressionSampled bool
	// PaddedCells and TruncatedCells total the row-normalization fixes
	// the corpus's tables recorded at ingest (table.RaggedCells): cells
	// invented to pad short rows and cells dropped from long rows.
	PaddedCells    int64
	TruncatedCells int64
}

// Sizes computes Table 1 for the corpus. With compress set it sums each
// table's CompressedSize: the TableInfo's CompressedBytes when a caller
// measured it already, a fresh measurement when it is 0.
func Sizes(c *Corpus, compress bool) PortalSizes {
	ps := PortalSizes{Portal: c.Portal}
	perDS := map[string]int{}
	for _, ti := range c.Tables {
		perDS[ti.DatasetID]++
		ps.Columns += ti.Table.NumCols()
		ps.TotalBytes += ti.RawSize
		if ti.RawSize > ps.LargestTableBytes {
			ps.LargestTableBytes = ti.RawSize
		}
		ps.PaddedCells += int64(ti.Table.Ragged.Padded)
		ps.TruncatedCells += int64(ti.Table.Ragged.Truncated)
	}
	ps.Datasets = len(perDS)
	maxPerDS := 0
	for _, n := range perDS {
		if n > maxPerDS {
			maxPerDS = n
		}
	}
	ps.MaxTablesPerDS = maxPerDS
	if ps.Datasets > 0 {
		ps.AvgTablesPerDS = float64(len(c.Tables)) / float64(ps.Datasets)
	}
	if c.Funnel.Datasets > 0 {
		ps.Datasets = c.Funnel.Datasets
	}
	ps.Tables = c.Funnel.Tables
	ps.Downloadable = c.Funnel.Downloadable
	ps.Readable = c.Funnel.Readable
	if ps.Tables == 0 {
		ps.Tables = len(c.Tables)
		ps.Downloadable = len(c.Tables)
		ps.Readable = len(c.Tables)
	}
	if compress {
		for _, ti := range c.Tables {
			n := ti.CompressedBytes
			if n == 0 {
				n = CompressedSize(ti.Table)
			}
			ps.CompressedBytes += n
		}
		ps.CompressionSampled = true
	}
	return ps
}

const sampleRows = 4096

// gzipWriters pools Table 1's compressors. A gzip.Writer carries about
// 814 KB of flate state; Reset rewinds it onto the next table's
// counter, and the stream it writes is the one a fresh writer at the
// same level would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// byteCounter is an io.Writer that keeps only how many bytes it was
// given: Table 1 needs the compressed length, not the stream.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// CompressedSize is one table's gzip size (default level) over its CSV
// serialization. The corpus does not keep raw bytes, so the body is
// rebuilt from the table; tables over sampleRows rows are compressed
// on that prefix and the size extrapolated linearly. The result is
// never 0, since a gzip stream has a header. Cells are read through
// Value, so an encoding-backed table stays unmaterialized. Safe for
// concurrent use.
func CompressedSize(t *table.Table) int64 {
	n := t.NumRows()
	rows := n
	frac := 1.0
	if n > sampleRows {
		rows = sampleRows
		frac = float64(n) / float64(sampleRows)
	}
	var size byteCounter
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(&size)
	writeCSV(zw, t, rows)
	zw.Close()
	gzipWriters.Put(zw)
	return int64(float64(size) * frac)
}

// writeCSV emits a minimal CSV of the header and the first rows rows:
// values are joined by commas and rows end in newlines, with no
// quoting or escaping. A value holding a comma or newline is written
// as is, which is close enough for a size estimate.
func writeCSV(w io.Writer, t *table.Table, rows int) {
	row := make([]byte, 0, 256)
	row = appendRow(row[:0], t.Cols)
	w.Write(row)
	vals := make([]string, t.NumCols())
	for r := 0; r < rows; r++ {
		for c := range vals {
			vals[c] = t.Value(c, r)
		}
		row = appendRow(row[:0], vals)
		w.Write(row)
	}
}

func appendRow(buf []byte, vals []string) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, v...)
	}
	return append(buf, '\n')
}

// TableSizeStats is Table 2: per-portal column and row statistics.
type TableSizeStats struct {
	Portal     string
	AvgCols    float64
	MedianCols float64
	MaxCols    int
	AvgRows    float64
	MedianRows float64
	MaxRows    int
}

// TableSizes computes Table 2.
func TableSizes(c *Corpus) TableSizeStats {
	st := TableSizeStats{Portal: c.Portal}
	var cols, rows []float64
	for _, ti := range c.Tables {
		nc, nr := ti.Table.NumCols(), ti.Table.NumRows()
		cols = append(cols, float64(nc))
		rows = append(rows, float64(nr))
		if nc > st.MaxCols {
			st.MaxCols = nc
		}
		if nr > st.MaxRows {
			st.MaxRows = nr
		}
	}
	st.AvgCols = stats.Mean(cols)
	st.MedianCols = stats.Median(cols)
	st.AvgRows = stats.Mean(rows)
	st.MedianRows = stats.Median(rows)
	return st
}

// SizePercentile is one point of Figure 1: when keeping only tables up
// to the given size percentile, the cut-off table size and the
// cumulative portal size.
type SizePercentile struct {
	Percentile float64
	CutoffSize int64
	Cumulative int64
}

// SizePercentiles computes Figure 1 at the given percentile steps
// (e.g. 10, 20, ..., 100).
func SizePercentiles(c *Corpus, steps []float64) []SizePercentile {
	sizes := make([]int64, 0, len(c.Tables))
	for _, ti := range c.Tables {
		sizes = append(sizes, ti.RawSize)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	cum := make([]int64, len(sizes))
	var run int64
	for i, s := range sizes {
		run += s
		cum[i] = run
	}
	var out []SizePercentile
	for _, p := range steps {
		if len(sizes) == 0 {
			out = append(out, SizePercentile{Percentile: p})
			continue
		}
		idx := int(p/100*float64(len(sizes))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sizes) {
			idx = len(sizes) - 1
		}
		out = append(out, SizePercentile{
			Percentile: p,
			CutoffSize: sizes[idx],
			Cumulative: cum[idx],
		})
	}
	return out
}

// GrowthPoint is one year of Figure 2: the portal's cumulative size at
// the end of that year.
type GrowthPoint struct {
	Year       int
	Cumulative int64
}

// Growth computes Figure 2 from dataset publication dates.
func Growth(c *Corpus) []GrowthPoint {
	byYear := map[int]int64{}
	for _, ti := range c.Tables {
		if ti.Published.IsZero() {
			continue
		}
		byYear[ti.Published.Year()] += ti.RawSize
	}
	var years []int
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	var out []GrowthPoint
	var cum int64
	for _, y := range years {
		cum += byYear[y]
		out = append(out, GrowthPoint{Year: y, Cumulative: cum})
	}
	return out
}

// NullStats is Figure 4 for one portal.
type NullStats struct {
	Portal string
	// ColumnNullRatios is the null ratio of every column.
	ColumnNullRatios []float64
	// TableNullRatios is the average null ratio of each table.
	TableNullRatios []float64
	// FracColsWithNulls is the fraction of columns with ≥ 1 null.
	FracColsWithNulls float64
	// FracColsHalfEmpty is the fraction of columns more than half null.
	FracColsHalfEmpty float64
	// FracColsAllNull is the fraction of entirely-null columns.
	FracColsAllNull float64
}

// Nulls computes Figure 4.
func Nulls(c *Corpus) NullStats {
	ns := NullStats{Portal: c.Portal}
	withNull, halfEmpty, allNull, total := 0, 0, 0, 0
	for _, ti := range c.Tables {
		var tblSum float64
		nc := ti.Table.NumCols()
		for ci := 0; ci < nc; ci++ {
			r := ti.Table.Profile(ci).NullRatio()
			ns.ColumnNullRatios = append(ns.ColumnNullRatios, r)
			tblSum += r
			total++
			if r > 0 {
				withNull++
			}
			if r > 0.5 {
				halfEmpty++
			}
			if stats.ApproxEq(r, 1) {
				allNull++
			}
		}
		if nc > 0 {
			ns.TableNullRatios = append(ns.TableNullRatios, tblSum/float64(nc))
		}
	}
	if total > 0 {
		ns.FracColsWithNulls = float64(withNull) / float64(total)
		ns.FracColsHalfEmpty = float64(halfEmpty) / float64(total)
		ns.FracColsAllNull = float64(allNull) / float64(total)
	}
	return ns
}

// MetadataStats is Table 3 for one portal.
type MetadataStats struct {
	Portal       string
	Structured   float64
	Unstructured float64
	Outside      float64
	Lacking      float64
}

// Metadata computes Table 3 over a sample of datasets (the paper used
// 100 per portal; pass 0 to use all datasets).
func Metadata(c *Corpus, sample int) MetadataStats {
	ms := MetadataStats{Portal: c.Portal}
	seen := map[string]int{}
	for _, ti := range c.Tables {
		if _, ok := seen[ti.DatasetID]; !ok {
			seen[ti.DatasetID] = ti.Metadata
		}
	}
	var styles []int
	for _, s := range seen {
		styles = append(styles, s)
	}
	sort.Ints(styles) // deterministic
	if sample > 0 && len(styles) > sample {
		styles = styles[:sample]
	}
	if len(styles) == 0 {
		return ms
	}
	n := float64(len(styles))
	for _, s := range styles {
		switch s {
		case 1:
			ms.Structured++
		case 2:
			ms.Unstructured++
		case 3:
			ms.Outside++
		default:
			ms.Lacking++
		}
	}
	ms.Structured /= n
	ms.Unstructured /= n
	ms.Outside /= n
	ms.Lacking /= n
	return ms
}

// UniquenessStats is Table 4 for one broad column class of a portal.
type UniquenessStats struct {
	Class             string // "text", "number", or "all"
	Columns           int
	AvgUnique         float64
	MedianUnique      float64
	MaxUnique         int
	AvgUniqueness     float64
	MedianUniqueness  float64
	FracBelowTenthSco float64 // fraction of columns with score < 0.1
}

// Uniqueness computes Table 4 / Figure 5: uniqueness statistics split
// by the text/number broad classes plus the combined row.
func Uniqueness(c *Corpus) map[string]UniquenessStats {
	classes := map[string]*struct {
		uniques []float64
		scores  []float64
		max     int
	}{
		"text": {}, "number": {}, "all": {},
	}
	add := func(class string, unique int, score float64) {
		s := classes[class]
		s.uniques = append(s.uniques, float64(unique))
		s.scores = append(s.scores, score)
		if unique > s.max {
			s.max = unique
		}
	}
	for _, ti := range c.Tables {
		for ci := range ti.Table.Cols {
			p := ti.Table.Profile(ci)
			class := p.Type.BroadClass()
			if class != "text" && class != "number" {
				continue // all-null columns are outside both classes
			}
			add(class, p.Distinct, p.Uniqueness())
			add("all", p.Distinct, p.Uniqueness())
		}
	}
	out := make(map[string]UniquenessStats, len(classes))
	for name, s := range classes {
		below := 0
		for _, sc := range s.scores {
			if sc < 0.1 {
				below++
			}
		}
		fracBelow := 0.0
		if len(s.scores) > 0 {
			fracBelow = float64(below) / float64(len(s.scores))
		}
		out[name] = UniquenessStats{
			Class:             name,
			Columns:           len(s.uniques),
			AvgUnique:         stats.Mean(s.uniques),
			MedianUnique:      stats.Median(s.uniques),
			MaxUnique:         s.max,
			AvgUniqueness:     stats.Mean(s.scores),
			MedianUniqueness:  stats.Median(s.scores),
			FracBelowTenthSco: fracBelow,
		}
	}
	return out
}
