package core_test

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ogdp/internal/colstore"
	"ogdp/internal/core"
	"ogdp/internal/corpus"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/gen"
)

// Load-path floors: a corpus served from its colstore files must load
// in at most half the wall time, and with at most half the allocated
// bytes, of the same corpus re-parsed from CSV.
const (
	maxLoadTimeRatio  = 0.5
	maxLoadAllocRatio = 0.5
)

// loadSample is the best of several loads of one corpus directory.
type loadSample struct {
	src     corpus.Source
	best    time.Duration
	alloc   uint64
	notes   int
	encoded int
	tables  int
}

// measureLoad loads dir once, keeping the faster time and the smaller
// allocation delta of this load and the samples already in s.
func measureLoad(t *testing.T, dir string, s *loadSample) {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	src, notes, err := diskcorpus.LoadStudyNotes(dir)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	if s.src == nil || took < s.best {
		s.best = took
	}
	if s.src == nil || alloc < s.alloc {
		s.alloc = alloc
	}
	s.src, s.notes = src, len(notes)
	s.encoded, s.tables = 0, 0
	for _, m := range src.TableMetas() {
		s.tables++
		if m.Table.Encoded() {
			s.encoded++
		}
	}
}

// TestColstoreLoadPath is the storage layer's load gate. One CA corpus
// is saved twice, and one copy loses its colstore files. Each copy is
// loaded three times, interleaved, keeping the best wall time and the
// best allocation delta. The colstore load must serve every table from
// its mapping and beat the CSV load by the floors above on both axes,
// and the portal study over either load must be identical.
func TestColstoreLoadPath(t *testing.T) {
	if testing.Short() {
		t.Skip("saves and loads a corpus, then runs the study twice")
	}
	const scale, seed = 0.1, 1
	c := gen.Generate(gen.CA(), scale, seed)
	mmapDir, csvDir := t.TempDir(), t.TempDir()
	for _, dir := range []string{mmapDir, csvDir} {
		if _, err := gen.SaveCorpus(dir, c); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), colstore.Ext) {
			if err := os.Remove(filepath.Join(csvDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	var mmap, csv loadSample
	for range 3 {
		measureLoad(t, mmapDir, &mmap)
		measureLoad(t, csvDir, &csv)
	}
	if mmap.encoded != mmap.tables || mmap.notes != 0 {
		t.Fatalf("colstore pass not fully served from colstore: %d/%d tables encoded, %d fallback notes",
			mmap.encoded, mmap.tables, mmap.notes)
	}
	if csv.encoded != 0 {
		t.Fatalf("CSV pass served %d of %d tables from colstore", csv.encoded, csv.tables)
	}
	timeRatio := float64(mmap.best) / float64(csv.best)
	allocRatio := float64(mmap.alloc) / float64(csv.alloc)
	t.Logf("%d tables: colstore %v %d B, CSV %v %d B; ratios time %.3f alloc %.3f",
		mmap.tables, mmap.best, mmap.alloc, csv.best, csv.alloc, timeRatio, allocRatio)
	if timeRatio > maxLoadTimeRatio {
		t.Errorf("colstore load time ratio %.3f exceeds %.2f", timeRatio, maxLoadTimeRatio)
	}
	if allocRatio > maxLoadAllocRatio {
		t.Errorf("colstore load alloc ratio %.3f exceeds %.2f", allocRatio, maxLoadAllocRatio)
	}

	opts := core.Options{Scale: scale, Seed: seed, MaxFDTables: 10, SamplePerCell: 2, UnionSamples: 4}
	want := core.RunPortal(csv.src, opts)
	got := core.RunPortal(mmap.src, opts)
	want.Corpus, got.Corpus = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Error("portal study differs between the colstore and the CSV load")
	}
}
