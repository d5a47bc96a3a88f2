package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ogdp/internal/table"
)

// varied builds a table of n rows whose values repeat on several
// periods, so deflate finds matches without the stream collapsing.
func varied(name string, n int) *table.Table {
	cols := []string{"id", "district", "amount", "note"}
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = []string{
			fmt.Sprint(r),
			fmt.Sprintf("district-%d", r%17),
			fmt.Sprintf("%d.%02d", (r*7919)%1000, r%100),
			strings.Repeat("x", r%5),
		}
	}
	return table.FromRows(name, cols, rows)
}

// referenceSize is Table 1's measurement done the plain way: a fresh
// writer per table, the stream kept in a buffer, the CSV text built
// independently of writeCSV.
func referenceSize(t *table.Table) int64 {
	rows := min(t.NumRows(), sampleRows)
	var csv strings.Builder
	csv.WriteString(strings.Join(t.Cols, ",") + "\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < t.NumCols(); c++ {
			if c > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(t.Value(c, r))
		}
		csv.WriteByte('\n')
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(csv.String()))
	zw.Close()
	return int64(float64(buf.Len()) * float64(t.NumRows()) / float64(rows))
}

// TestCompressedSizeMatchesFreshWriter pins the pooled kernel to a
// fresh writer's output on a table under the sampling cutoff and one
// over it, where the prefix size is extrapolated.
func TestCompressedSizeMatchesFreshWriter(t *testing.T) {
	for _, tbl := range []*table.Table{varied("small.csv", 300), varied("large.csv", 3*sampleRows+123)} {
		want := referenceSize(tbl)
		if got := CompressedSize(tbl); got != want {
			t.Errorf("%s: CompressedSize = %d, fresh writer gives %d", tbl.Name, got, want)
		}
	}
}

// TestCompressedSizeKeepsEncodedTables pins that Table 1's size of an
// encoding-backed table (a colstore-loaded corpus) equals that of its
// cell-backed twin, below and above the sampling cutoff, without
// materializing the table's cells.
func TestCompressedSizeKeepsEncodedTables(t *testing.T) {
	for _, src := range []*table.Table{varied("small.csv", 300), varied("large.csv", 3*sampleRows+123)} {
		encs := make([]*table.Encoding, src.NumCols())
		for c := range encs {
			encs[c] = src.Encoding(c)
		}
		ext, err := table.FromEncodings(src.Name, src.Cols, encs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := CompressedSize(ext), CompressedSize(src); got != want {
			t.Errorf("%s: encoded CompressedSize = %d, cell-backed %d", src.Name, got, want)
		}
		if !ext.Encoded() {
			t.Errorf("%s: CompressedSize materialized the cells", src.Name)
		}
	}
}

// TestCompressedSizeRepeatable checks that a pooled writer carries no
// state from one table into the next, sequentially or concurrently.
func TestCompressedSizeRepeatable(t *testing.T) {
	tables := []*table.Table{varied("small.csv", 300), varied("large.csv", sampleRows+1), varied("tiny.csv", 1)}
	want := make([]int64, len(tables))
	for i, tbl := range tables {
		want[i] = referenceSize(tbl)
	}
	for rep := 0; rep < 3; rep++ {
		for i, tbl := range tables {
			if got := CompressedSize(tbl); got != want[i] {
				t.Fatalf("repeat %d, %s: %d, want %d", rep, tbl.Name, got, want[i])
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(tables))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range tables {
				i := (g + k) % len(tables)
				if got := CompressedSize(tables[i]); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, %s: %d, want %d", g, tables[i].Name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCompressedSizeReusesWriters locks in the pooling: a call must
// allocate far less than one flate compressor, which is what a fresh
// gzip.NewWriter per table used to cost.
func TestCompressedSizeReusesWriters(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fresh := allocated(func() { gzip.NewWriter(&bytes.Buffer{}).Close() })
	tbl := varied("small.csv", 300)
	CompressedSize(tbl) // fill the pool
	const calls = 20
	perCall := allocated(func() {
		for i := 0; i < calls; i++ {
			CompressedSize(tbl)
		}
	}) / calls
	if perCall > fresh/10 {
		t.Errorf("CompressedSize allocates %d B per call; one fresh gzip writer is %d B", perCall, fresh)
	}
}

// TestSizesUsesPrecomputedSizes checks that Sizes sums the caller's
// CompressedBytes where set and measures only the tables left at 0.
func TestSizesUsesPrecomputedSizes(t *testing.T) {
	c := testCorpus()
	measured := CompressedSize(c.Tables[2].Table)
	c.Tables[0].CompressedBytes = 1000
	c.Tables[1].CompressedBytes = 20
	if got := Sizes(c, true).CompressedBytes; got != 1020+measured {
		t.Errorf("CompressedBytes = %d, want %d", got, 1020+measured)
	}
}
