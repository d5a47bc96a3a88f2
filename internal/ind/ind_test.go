package ind

import (
	"fmt"
	"reflect"
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
	inds := Find(tables, Options{})
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

// TestFindMatchesOracle: the one-probe search returns exactly the
// INDs the postings-map search did, on the four generated portals at
// seeds 1-3, at the study's MinDistinct (10) and sqlgen's (2).
func TestFindMatchesOracle(t *testing.T) {
	for _, prof := range gen.Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			tables := gen.Generate(prof, 0.05, seed).Tables()
			for _, minDistinct := range []int{10, 2} {
				opts := Options{MinDistinct: minDistinct}
				got, want := Find(tables, opts), oracleFind(tables, opts)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d MinDistinct %d: Find %d INDs, oracle %d", prof.Name, seed, minDistinct, len(got), len(want))
				}
				if len(want) == 0 {
					t.Errorf("%s seed %d MinDistinct %d: no INDs to compare", prof.Name, seed, minDistinct)
				}
			}
		}
	}
}

// FuzzFind holds Find to the oracle on small corpora decoded from fuzz
// bytes. The first byte picks MinDistinct in 1..3 and the table count
// in 1..4; every later byte is one cell, its low nibble the value (so
// columns share values) and its high nibble unused. Cells fill the
// tables' two columns row by row, round robin across tables, and
// every other table repeats its first column as its second, so
// duplicate columns occur.
func FuzzFind(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0x31, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7, 1, 2})
	f.Add([]byte{0x32, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3})
	f.Add([]byte{0x12, 0xf0, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		minDistinct := int(data[0]%3) + 1
		nTables := int(data[0]>>4)%4 + 1
		cols := make([][2][]string, nTables)
		for i, b := range data[1:] {
			ti := i % nTables
			v := strconv.Itoa(int(b & 0x0f))
			if ti%2 == 1 {
				cols[ti][0] = append(cols[ti][0], v)
				cols[ti][1] = append(cols[ti][1], v)
				continue
			}
			c := (i / nTables) % 2
			cols[ti][c] = append(cols[ti][c], v)
		}
		var tables []*table.Table
		for ti, c := range cols {
			n := min(len(c[0]), len(c[1]))
			tables = append(tables, table.New(fmt.Sprintf("t%d.csv", ti), []string{"a", "b"}, [][]string{c[0][:n], c[1][:n]}))
		}
		opts := Options{MinDistinct: minDistinct}
		if got, want := Find(tables, opts), oracleFind(tables, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("MinDistinct %d: Find %+v, oracle %+v", minDistinct, got, want)
		}
	})
}

func BenchmarkFind(b *testing.B) {
	corpus := gen.Generate(gen.CA(), 0.1, 19)
	tables := corpus.Tables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(tables, Options{})
	}
}
