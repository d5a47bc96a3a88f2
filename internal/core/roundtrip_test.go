package core

import (
	"reflect"
	"testing"

	"ogdp/internal/diskcorpus"
	"ogdp/internal/gen"
)

// TestDiskRoundtripStudyParity is the storage-layer contract of the
// corpus.Source interface: generating a portal, saving it to disk,
// reloading it through diskcorpus.LoadStudy, and re-running the study
// must reproduce the in-memory PortalResult exactly — every table,
// figure, label distribution, and funnel count. This exercises the
// whole save/load path (CSV serialization roundtrip, provenance
// manifest, profile restoration for the servable funnel portal).
func TestDiskRoundtripStudyParity(t *testing.T) {
	opts := Options{
		Scale:         0.08,
		Seed:          11,
		FetchFunnel:   true,
		Compress:      true,
		Sensitivity:   true,
		Extensions:    true,
		MaxFDTables:   20,
		SamplePerCell: 3,
		UnionSamples:  6,
	}
	if raceEnabled {
		opts.Scale = 0.04
		opts.MaxFDTables = 8
		opts.Sensitivity = false
		opts.Extensions = false
	}
	c := gen.Generate(gen.CA(), opts.Scale, opts.Seed)
	want := RunPortal(c, opts)

	dir := t.TempDir()
	if _, err := gen.SaveCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	src, err := diskcorpus.LoadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := src.(*gen.Corpus)
	if !ok {
		t.Fatalf("LoadStudy returned %T despite provenance.json, want *gen.Corpus", src)
	}
	if loaded.PortalName != c.PortalName || len(loaded.Metas) != len(c.Metas) {
		t.Fatalf("reloaded corpus shape differs: %s/%d tables vs %s/%d",
			loaded.PortalName, len(loaded.Metas), c.PortalName, len(c.Metas))
	}
	got := RunPortal(src, opts)

	// The corpora are deeply equal but hold separate lazily-filled
	// profile caches; everything else must match exactly.
	want.Corpus, got.Corpus = nil, nil
	if !reflect.DeepEqual(want, got) {
		t.Error("PortalResult differs between in-memory and disk-reloaded corpus")
		for _, f := range []struct {
			name string
			a, b any
		}{
			{"Sizes", want.Sizes, got.Sizes},
			{"SizePercentiles", want.SizePercentiles, got.SizePercentiles},
			{"Growth", want.Growth, got.Growth},
			{"TableSizes", want.TableSizes, got.TableSizes},
			{"Nulls", want.Nulls, got.Nulls},
			{"Metadata", want.Metadata, got.Metadata},
			{"Uniqueness", want.Uniqueness, got.Uniqueness},
			{"KeySizeDist", want.KeySizeDist, got.KeySizeDist},
			{"FD", want.FD, got.FD},
			{"Join", want.Join, got.Join},
			{"JoinAt07", want.JoinAt07, got.JoinAt07},
			{"Labels", want.Labels, got.Labels},
			{"Union", want.Union, got.Union},
			{"UnionLabels", want.UnionLabels, got.UnionLabels},
			{"Ext", want.Ext, got.Ext},
		} {
			if !reflect.DeepEqual(f.a, f.b) {
				t.Errorf("  field %s: %+v != %+v", f.name, f.a, f.b)
			}
		}
	}

	// Sanity: the comparison must not be vacuous. The race-scaled
	// fixture is too small to yield label samples, so that floor only
	// binds at full scale.
	if want.Join.Pairs == 0 || want.Sizes.Readable == 0 || (!raceEnabled && want.Labels.Samples == 0) {
		t.Fatalf("parity comparison is vacuous: %d pairs, %d samples, %d readable",
			want.Join.Pairs, want.Labels.Samples, want.Sizes.Readable)
	}
}

// TestStudyKeepsColstoreTablesEncoded runs the portal study over a
// corpus served from its colstore files, with the extension and
// sensitivity analyses off and on: every analysis reads the tables
// through their encodings, so no table may materialize its cells.
func TestStudyKeepsColstoreTablesEncoded(t *testing.T) {
	if testing.Short() {
		t.Skip("saves a corpus and runs the study twice")
	}
	scale := 0.2
	if raceEnabled {
		scale = 0.05
	}
	dir := t.TempDir()
	if _, err := gen.SaveCorpus(dir, gen.Generate(gen.CA(), scale, 1)); err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		src, err := diskcorpus.LoadStudy(dir)
		if err != nil {
			t.Fatal(err)
		}
		materialized := func() int {
			n := 0
			for _, m := range src.TableMetas() {
				if !m.Table.Encoded() {
					n++
				}
			}
			return n
		}
		if n := materialized(); n > 0 {
			t.Fatalf("%d tables not served from colstore; the test would not exercise the encoded path", n)
		}
		RunPortal(src, Options{Scale: scale, Seed: 1, Extensions: on, Sensitivity: on})
		if n := materialized(); n > 0 {
			t.Errorf("extensions and sensitivity %v: %d of %d tables materialized their cells",
				on, n, len(src.TableMetas()))
		}
	}
}
