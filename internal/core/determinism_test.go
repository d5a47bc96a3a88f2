package core

import (
	"reflect"
	"testing"

	"ogdp/internal/gen"
)

// TestStudyDeterministicAcrossWorkers is the determinism contract of
// the parallel execution layer: the full study over an SG+US corpus
// must be byte-identical between a sequential run (Workers=1) and a
// heavily oversubscribed parallel run (Workers=8). Options and the
// corpus pointers are normalized before comparison — Options differs
// by construction (it records Workers) and the two runs generate
// separate (deeply equal, but profile-cache-bearing) corpora.
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	profs := []gen.PortalProfile{gen.SG(), gen.US()}
	base := Options{
		Scale:         0.08,
		Seed:          5,
		MaxFDTables:   30,
		SamplePerCell: 4,
		UnionSamples:  8,
		Sensitivity:   true,
		// Table 1's deflate runs as precompute units on the pooled
		// writers; Compress keeps them in the comparison and under -race.
		Compress: true,
	}
	if raceEnabled {
		// The race detector is what matters here (the DeepEqual runs
		// again without it); shrink the corpus to keep -race fast.
		base.Scale = 0.04
		base.MaxFDTables = 12
		base.Sensitivity = false
	}

	run := func(workers int) *StudyResult {
		o := base
		o.Workers = workers
		res := Run(profs, o)
		res.Options = Options{}
		for i := range res.Portals {
			res.Portals[i].Corpus = nil
		}
		return res
	}

	seq := run(1)
	par := run(8)

	if len(seq.Portals) != len(par.Portals) {
		t.Fatalf("portal counts differ: %d vs %d", len(seq.Portals), len(par.Portals))
	}
	for i := range seq.Portals {
		if !reflect.DeepEqual(seq.Portals[i], par.Portals[i]) {
			s, p := seq.Portals[i], par.Portals[i]
			t.Errorf("portal %s differs between Workers=1 and Workers=8", s.Portal)
			// Narrow the diff for debuggability.
			for _, f := range []struct {
				name string
				a, b any
			}{
				{"Sizes", s.Sizes, p.Sizes},
				{"SizePercentiles", s.SizePercentiles, p.SizePercentiles},
				{"TableSizes", s.TableSizes, p.TableSizes},
				{"Nulls", s.Nulls, p.Nulls},
				{"Uniqueness", s.Uniqueness, p.Uniqueness},
				{"KeySizeDist", s.KeySizeDist, p.KeySizeDist},
				{"FD", s.FD, p.FD},
				{"Join", s.Join, p.Join},
				{"JoinAt07", s.JoinAt07, p.JoinAt07},
				{"Labels", s.Labels, p.Labels},
				{"Union", s.Union, p.Union},
				{"UnionLabels", s.UnionLabels, p.UnionLabels},
			} {
				if !reflect.DeepEqual(f.a, f.b) {
					t.Errorf("  field %s: %+v != %+v", f.name, f.a, f.b)
				}
			}
		}
	}
	if !reflect.DeepEqual(seq, par) && !t.Failed() {
		t.Error("StudyResult differs outside portal fields")
	}

	// Sanity: the comparison must not be vacuous.
	if seq.Portals[0].Join.Pairs == 0 || seq.Portals[0].Labels.Samples == 0 {
		t.Fatal("determinism comparison is vacuous (no pairs or samples)")
	}
}
