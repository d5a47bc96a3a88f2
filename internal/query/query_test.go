package query

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ogdp/internal/diskcorpus"
	"ogdp/internal/fd"
	"ogdp/internal/gen"
)

// fixtureDir writes a small corpus with known joinable, unionable,
// and FD structure.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var species strings.Builder
	species.WriteString("species_id,species,region,climate\n")
	var landings strings.Builder
	landings.WriteString("code,species,tonnage\n")
	climates := []string{"temperate", "arctic", "tropical"}
	for i := 0; i < 20; i++ {
		// climate is a function of region (and region is no key), so
		// region -> climate is a minimal non-trivial FD.
		fmt.Fprintf(&species, "S%02d,name-%02d,region-%d,%s\n", i, i, i%3, climates[i%3])
		// 15 of the 20 species values overlap.
		if i < 15 {
			fmt.Fprintf(&landings, "C%02d,name-%02d,%d\n", i, i, 10*i)
		} else {
			fmt.Fprintf(&landings, "C%02d,other-%02d,%d\n", i, i, 10*i)
		}
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("species.csv", species.String())
	write("landings.csv", landings.String())
	// Two tables with the identical schema: a unionable pair.
	write("parts-2019.csv", "city,country,count\na,AA,1\nb,BB,2\nc,AA,3\n")
	write("parts-2020.csv", "city,country,count\nd,AA,4\ne,BB,5\nf,CC,6\n")
	return dir
}

func serviceFromDir(t *testing.T, dir string, workers int) *Service {
	t.Helper()
	c, err := diskcorpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Skips) > 0 {
		t.Fatalf("fixture skips: %v", c.Skips)
	}
	return New(c, Options{Workers: workers})
}

func fixtureService(t *testing.T, workers int) *Service {
	t.Helper()
	return serviceFromDir(t, fixtureDir(t), workers)
}

func TestDoJoin(t *testing.T) {
	s := fixtureService(t, 0)
	got, err := s.Do(context.Background(), Request{Kind: KindJoin, Table: "landings.csv", Col: "species"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "query: landings.csv.species (20 distinct values)\n\ntop-5 joinable columns") {
		t.Errorf("join output header wrong:\n%s", got)
	}
	if !strings.Contains(got, "species.csv.species") || !strings.Contains(got, "overlap=15") {
		t.Errorf("join output misses the planted overlap:\n%s", got)
	}
	// The body is exactly what the renderers compose — the contract
	// that keeps the server and the one-shot CLI byte-identical.
	ti := s.TableIndex("landings.csv")
	ci, err := s.pickColumn(ti, "species")
	if err != nil {
		t.Fatal(err)
	}
	if want := s.headerText(ti, ci) + "\n" + s.joinText(ti, ci, DefaultK); got != want {
		t.Errorf("Do(join) != headerText+joinText:\n%q\n%q", got, want)
	}
}

func TestDoUnion(t *testing.T) {
	s := fixtureService(t, 0)
	got, err := s.Do(context.Background(), Request{Kind: KindUnion, Table: "parts-2019.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "parts-2020.csv") {
		t.Errorf("union misses the schema twin:\n%s", got)
	}
	// A table with a unique schema has no candidates.
	got, err = s.Do(context.Background(), Request{Kind: KindUnion, Table: "species.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "  none\n") {
		t.Errorf("union of unique schema should say none:\n%s", got)
	}
}

func TestDoProfile(t *testing.T) {
	s := fixtureService(t, 0)
	got, err := s.Do(context.Background(), Request{Kind: KindProfile, Table: "species.csv"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"table: species.csv (20 rows × 4 columns)",
		"[0] species_id",
		"single-column keys: species_id, species",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("profile output misses %q:\n%s", want, got)
		}
	}
}

func TestDoFD(t *testing.T) {
	s := fixtureService(t, 0)
	got, err := s.Do(context.Background(), Request{Kind: KindFD, Table: "species.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "functional dependencies of species.csv (max LHS 4):") {
		t.Errorf("fd header wrong:\n%s", got)
	}
	if !strings.Contains(got, "region -> climate") {
		t.Errorf("fd output misses region -> climate:\n%s", got)
	}
}

func TestDoErrors(t *testing.T) {
	s := fixtureService(t, 0)
	ctx := context.Background()
	if _, err := s.Do(ctx, Request{Kind: KindJoin, Table: "nope.csv"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown table: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Do(ctx, Request{Kind: "drop", Table: "species.csv"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown kind: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Do(ctx, Request{Kind: KindJoin, Table: "species.csv", Col: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown column: err = %v, want ErrBadRequest", err)
	}
	// parts-2019.csv has 3 rows: no column reaches the 10-distinct
	// join-eligibility bar.
	if _, err := s.Do(ctx, Request{Kind: KindJoin, Table: "parts-2019.csv"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("no eligible column: err = %v, want ErrBadRequest", err)
	}
}

func TestRequestKeyCanonical(t *testing.T) {
	a := Request{Kind: "JOIN", Table: " landings.csv ", Col: "species", K: 0, MaxLHS: 3}
	b := Request{Kind: "join", Table: "landings.csv", Col: "species", K: 5}
	if a.Key() != b.Key() {
		t.Errorf("equivalent join spellings differ: %q vs %q", a.Key(), b.Key())
	}
	// Fields a kind ignores must not split the cache.
	p1 := Request{Kind: KindProfile, Table: "t.csv", Col: "x", K: 9, MaxLHS: 2}
	p2 := Request{Kind: KindProfile, Table: "t.csv"}
	if p1.Key() != p2.Key() {
		t.Errorf("profile keys differ on ignored fields: %q vs %q", p1.Key(), p2.Key())
	}
	// Different questions must not collide.
	if (Request{Kind: KindJoin, Table: "t.csv"}).Key() == (Request{Kind: KindUnion, Table: "t.csv"}).Key() {
		t.Error("join and union share a key")
	}
}

func TestHashStableAndContentSensitive(t *testing.T) {
	dir := fixtureDir(t)
	load := func(d string) *Service {
		c, err := diskcorpus.Load(d)
		if err != nil {
			t.Fatal(err)
		}
		return New(c, Options{})
	}
	s1, s2 := load(dir), load(dir)
	if s1.Hash() != s2.Hash() {
		t.Errorf("same corpus hashes differ: %016x vs %016x", s1.Hash(), s2.Hash())
	}
	if s1.HashString() != fmt.Sprintf("%016x", s1.Hash()) {
		t.Errorf("HashString = %q", s1.HashString())
	}
	// Corpus directories load with the directory base name as portal
	// id, so compare content sensitivity within one directory: change
	// one cell and reload.
	if err := os.WriteFile(filepath.Join(dir, "parts-2019.csv"),
		[]byte("city,country,count\na,AA,1\nb,BB,2\nc,ZZ,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if load(dir).Hash() == s1.Hash() {
		t.Error("hash unchanged after a cell edit")
	}
}

// TestWorkerCountInvariance pins the determinism contract at the
// query surface: every response is byte-identical at Workers=1 and
// Workers=8, concurrent or not.
func TestWorkerCountInvariance(t *testing.T) {
	dir := fixtureDir(t)
	s1 := serviceFromDir(t, dir, 1)
	s8 := serviceFromDir(t, dir, 8)
	reqs := []Request{
		{Kind: KindJoin, Table: "landings.csv", Col: "species"},
		{Kind: KindUnion, Table: "parts-2019.csv"},
		{Kind: KindProfile, Table: "species.csv"},
		{Kind: KindFD, Table: "species.csv"},
		{Kind: KindRank, Table: "landings.csv"},
		{Kind: KindRank, Table: "parts-2019.csv"},
	}
	if s1.Hash() != s8.Hash() {
		t.Errorf("hash differs across worker counts")
	}
	var wg sync.WaitGroup
	for _, req := range reqs {
		a, err := s1.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		// Fire the same query at the 8-worker service from several
		// goroutines at once; all must match the sequential answer.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(req Request, want string) {
				defer wg.Done()
				got, err := s8.Do(context.Background(), req)
				if err != nil {
					t.Errorf("%s: %v", req.Key(), err)
					return
				}
				if got != want {
					t.Errorf("%s: workers-8 response differs from workers-1", req.Key())
				}
			}(req, a)
		}
	}
	wg.Wait()
}

func TestTablesListing(t *testing.T) {
	s := fixtureService(t, 0)
	infos := s.Tables()
	if len(infos) != 4 || s.NumTables() != 4 {
		t.Fatalf("tables = %d", len(infos))
	}
	if infos[0].Name != "landings.csv" || infos[0].Rows != 20 || len(infos[0].Cols) != 3 {
		t.Errorf("first table info = %+v", infos[0])
	}
	if s.NumIndexed() == 0 {
		t.Error("no columns indexed")
	}
	if s.TableIndex("landings.csv") != 0 || s.TableIndex("nope") != -1 {
		t.Error("TableIndex lookup wrong")
	}
}

func TestCanceledContext(t *testing.T) {
	s := fixtureService(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, Request{Kind: KindProfile, Table: "species.csv"}); err == nil {
		t.Error("profile under a canceled context should fail")
	}
}

// TestFDTextPinnedOnCA pins the /fd response bytes for every table of
// the generated CA portal (scale 0.05, seed 1) at max LHS 2 and 4: the
// SHA-256 prefix of the concatenated bodies, taken when each FD's
// support was counted on a fresh partition rather than read from the
// discovery's lattice.
func TestFDTextPinnedOnCA(t *testing.T) {
	const pinned = "c41aa6f8dfcea0b8"
	s := New(gen.Generate(gen.CA(), 0.05, 1), Options{Workers: 2})
	h := sha256.New()
	for ti := range s.tables {
		for _, maxLHS := range []int{2, fd.MaxLHS} {
			out, err := s.FDText(context.Background(), ti, maxLHS)
			if err != nil {
				t.Fatalf("%s: %v", s.tables[ti].Name, err)
			}
			h.Write([]byte(out))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != pinned {
		t.Errorf("/fd bodies over %d CA tables hash to %s, pinned %s", len(s.tables), got, pinned)
	}
}
