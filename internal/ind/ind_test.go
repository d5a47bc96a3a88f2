package ind

import (
	"fmt"
	"strconv"
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/table"
)

// lookupAndFacts builds a lookup table (key) plus a fact table whose
// fk column draws a subset of the lookup's keys.
func lookupAndFacts() []*table.Table {
	var lookup, facts [][]string
	for i := 0; i < 20; i++ {
		lookup = append(lookup, []string{fmt.Sprintf("Species %02d", i), "G" + strconv.Itoa(i%3)})
	}
	for r := 0; r < 100; r++ {
		facts = append(facts, []string{
			strconv.Itoa(r + 1),
			fmt.Sprintf("Species %02d", r%15), // touches 15 of 20 keys
			strconv.Itoa(r * 3),
		})
	}
	return []*table.Table{
		table.FromRows("species.csv", []string{"species", "group"}, lookup),
		table.FromRows("landings.csv", []string{"id", "species", "weight"}, facts),
	}
}

func TestFindDetectsForeignKey(t *testing.T) {
	tables := lookupAndFacts()
	inds := Find(tables, Options{})
	found := false
	for _, d := range inds {
		if d.DepTable == 1 && tables[1].Cols[d.DepCol] == "species" &&
			d.RefTable == 0 && tables[0].Cols[d.RefCol] == "species" {
			found = true
			if d.Missing != 0 || d.Coverage != 1 {
				t.Errorf("fk IND metrics = %+v", d)
			}
			if !d.RefIsKey {
				t.Error("referenced lookup key not flagged")
			}
		}
		// The reverse containment does not hold (lookup has 20, facts 15).
		if d.DepTable == 0 && tables[0].Cols[d.DepCol] == "species" && d.RefTable == 1 {
			t.Errorf("reverse inclusion wrongly reported: %+v", d)
		}
	}
	if !found {
		t.Errorf("foreign-key IND not found: %+v", inds)
	}
}

func TestFindApproximate(t *testing.T) {
	tables := lookupAndFacts()
	// Dirty fact: add rows referencing unknown species.
	facts := tables[1]
	tables[1] = table.FromRows(facts.Name, facts.Cols, append(facts.Rows(),
		[]string{"101", "Unknown A", "5"},
		[]string{"102", "Unknown B", "7"}))

	exact := Find(tables, Options{})
	for _, d := range exact {
		if d.DepTable == 1 && tables[1].Cols[d.DepCol] == "species" {
			t.Errorf("dirty inclusion reported exactly: %+v", d)
		}
	}
	approx := Find(tables, Options{MaxViolations: 2})
	found := false
	for _, d := range approx {
		if d.DepTable == 1 && tables[1].Cols[d.DepCol] == "species" && d.RefTable == 0 {
			found = true
			if d.Missing != 2 {
				t.Errorf("missing = %d, want 2", d.Missing)
			}
		}
	}
	if !found {
		t.Error("approximate IND not recovered")
	}
}

func TestMinDistinctFilter(t *testing.T) {
	small := table.FromRows("flags.csv", []string{"flag"}, [][]string{{"yes"}, {"no"}})
	var words []string
	for i := 0; i < 30; i++ {
		words = append(words, []string{"yes", "no", "maybe"}[i%3]+strconv.Itoa(i/3))
	}
	words = append(words, "yes", "no")
	big := table.New("all.csv", []string{"word"}, [][]string{words})
	inds := Find([]*table.Table{small, big}, Options{})
	for _, d := range inds {
		if d.DepTable == 0 {
			t.Errorf("low-cardinality dependent reported: %+v", d)
		}
	}
}

func TestRequireKeyReferenced(t *testing.T) {
	// Both columns non-key: A ⊆ B holds but is filtered.
	var va, vb []string
	for i := 0; i < 30; i++ {
		va = append(va, strconv.Itoa(i%15))
		vb = append(vb, strconv.Itoa(i%15), strconv.Itoa(i%15+100))
	}
	a := table.New("a.csv", []string{"v"}, [][]string{va})
	b := table.New("b.csv", []string{"v"}, [][]string{vb})
	all := Find([]*table.Table{a, b}, Options{})
	if len(all) == 0 {
		t.Fatal("expected inclusions between overlapping columns")
	}
	keyed := Find([]*table.Table{a, b}, Options{RequireKeyReferenced: true})
	if len(keyed) != 0 {
		t.Errorf("non-key references kept: %+v", keyed)
	}
}

func TestForeignKeyCandidates(t *testing.T) {
	tables := lookupAndFacts()
	inds := Find(tables, Options{})
	fks := ForeignKeyCandidates(tables, inds)
	if len(fks) == 0 {
		t.Fatal("no fk candidates")
	}
	for _, d := range fks {
		if !d.RefIsKey {
			t.Errorf("fk candidate with non-key reference: %+v", d)
		}
		if tables[d.DepTable].Profile(d.DepCol).IsKey() {
			t.Errorf("fk candidate with key dependent: %+v", d)
		}
	}
}

// TestOnGeneratedCorpus: the generator plants master/transaction
// relationships; IND discovery must surface some of them as fk
// candidates.
func TestOnGeneratedCorpus(t *testing.T) {
	corpus := gen.Generate(gen.CA(), 0.1, 19)
	tables := corpus.Tables()
	inds := Find(tables, Options{MaxViolations: 0})
	fks := ForeignKeyCandidates(tables, inds)
	planted := 0
	for _, d := range fks {
		m1 := corpus.Metas[d.DepTable]
		m2 := corpus.Metas[d.RefTable]
		if m1.Cols[d.DepCol].Role == gen.RoleForeignKey && m2.Cols[d.RefCol].Role == gen.RoleEntityKey &&
			m1.Cols[d.DepCol].Pool == m2.Cols[d.RefCol].Pool {
			planted++
		}
	}
	if planted == 0 {
		t.Errorf("no planted fk relationships discovered among %d candidates", len(fks))
	}
}

func BenchmarkFind(b *testing.B) {
	corpus := gen.Generate(gen.CA(), 0.1, 19)
	tables := corpus.Tables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(tables, Options{})
	}
}
