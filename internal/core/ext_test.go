package core

import (
	"math"
	"testing"

	"ogdp/internal/fd"
	"ogdp/internal/gen"
)

func TestExtensionsComputed(t *testing.T) {
	corpus := gen.Generate(gen.CA(), 0.12, 21)
	pr := RunPortal(corpus, Options{Scale: 0.12, Seed: 21, Extensions: true, Sensitivity: true, MaxFDTables: 30, SamplePerCell: 3, UnionSamples: 5})
	if pr.Ext == nil {
		t.Fatal("extensions not computed")
	}
	if pr.Ext.INDs == 0 {
		t.Error("no INDs found on CA corpus")
	}
	if pr.Ext.ForeignKeyCandidates == 0 {
		t.Error("no fk candidates on CA corpus")
	}
	if pr.Ext.PlantedFKRecovered <= 0.2 {
		t.Errorf("planted fk recovery = %.2f, want substantial", pr.Ext.PlantedFKRecovered)
	}
	if pr.Ext.FuzzyUnionTables < pr.Ext.ExactUnionTables {
		t.Errorf("fuzzy union tables (%d) below exact (%d)", pr.Ext.FuzzyUnionTables, pr.Ext.ExactUnionTables)
	}
	if pr.Ext.MeanFDPlausibility <= 0.2 || pr.Ext.MeanFDPlausibility > 1 {
		t.Errorf("mean FD plausibility = %.2f", pr.Ext.MeanFDPlausibility)
	}
	if pr.JoinAt07 == nil || pr.JoinAt07.Pairs < pr.Join.Pairs {
		t.Error("sensitivity join stats missing or inconsistent")
	}

	// The plausibility sample reuses the §4 FD lists; it must equal a
	// sample drawn from fresh fd.Discover calls on the same tables.
	var sum float64
	n := 0
	for _, tb := range fdSubset(corpus.TableMetas(), 30) {
		for _, f := range fd.Discover(tb, fd.MaxLHS) {
			if n < 200 {
				sum += fd.Plausibility(tb, f)
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no FDs in the plausibility sample")
	}
	if want := sum / float64(n); math.Float64bits(pr.Ext.MeanFDPlausibility) != math.Float64bits(want) {
		t.Errorf("mean FD plausibility = %v, fresh discovery gives %v", pr.Ext.MeanFDPlausibility, want)
	}
}
