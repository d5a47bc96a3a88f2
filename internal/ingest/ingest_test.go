package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ogdp/internal/csvio"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/gen"
	"ogdp/internal/query"
	"ogdp/internal/table"
)

// fixture saves a generated corpus and builds a snapshot directory
// derived from it with exactly one added, one updated, and one deleted
// table. Returns both directories and the victims' names.
func fixture(t *testing.T) (corpusDir, snapDir, updated, deleted string) {
	t.Helper()
	corpusDir = t.TempDir()
	snapDir = t.TempDir()
	c := gen.Generate(gen.CA(), 0.03, 9)
	if len(c.Metas) < 3 {
		t.Fatalf("fixture corpus too small: %d tables", len(c.Metas))
	}
	if _, err := gen.SaveCorpus(corpusDir, c); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	updated, deleted = names[0], names[1]
	for _, name := range names {
		if name == deleted {
			continue
		}
		body, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == updated {
			// Revise the table: append rows so content and profiles change.
			rev, err := parseSnapshot(name, body)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]string, rev.NumCols())
			for i := range row {
				row[i] = fmt.Sprintf("revised-%d", i)
			}
			rev = table.FromRows(rev.Name, rev.Cols, append(rev.Rows(), row))
			body = csvBytes(t, rev)
		}
		if err := os.WriteFile(filepath.Join(snapDir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	added := table.FromRows("zz-new-arrivals.csv", []string{"permit_id", "holder"}, [][]string{
		{"P-100", "alpha"}, {"P-101", "beta"}, {"P-102", "gamma"}, {"P-103", "delta"},
		{"P-104", "epsilon"}, {"P-105", "zeta"}, {"P-106", "eta"}, {"P-107", "theta"},
		{"P-108", "iota"}, {"P-109", "kappa"}, {"P-110", "lambda"}, {"P-111", "mu"},
	})
	if err := os.WriteFile(filepath.Join(snapDir, added.Name), csvBytes(t, added), 0o644); err != nil {
		t.Fatal(err)
	}
	return corpusDir, snapDir, updated, deleted
}

func csvBytes(t *testing.T, tb *table.Table) []byte {
	t.Helper()
	return csvio.Bytes(tb)
}

func service(t *testing.T, dir string) *query.Service {
	t.Helper()
	src, err := diskcorpus.LoadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	return query.New(src, query.Options{})
}

// TestIncrementalIngestMatchesRebuild is the acceptance check for the
// delta path: detect a 1-add + 1-update + 1-delete snapshot, patch a
// live service in place, commit the delta to disk, and compare against
// a service rebuilt from scratch over the patched corpus — content
// hash and every rendered answer must be identical, with only the
// changed tables parsed.
func TestIncrementalIngestMatchesRebuild(t *testing.T) {
	corpusDir, snapDir, updated, deleted := fixture(t)
	patched := service(t, corpusDir)

	plan, err := Detect(corpusDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Added) != 1 || len(plan.Updated) != 1 || len(plan.Deleted) != 1 {
		t.Fatalf("plan = %s, want 1/1/1", plan.Summary())
	}
	if plan.Updated[0].Name != updated || plan.Deleted[0] != deleted {
		t.Fatalf("plan victims = %s/%s, want %s/%s",
			plan.Updated[0].Name, plan.Deleted[0], updated, deleted)
	}
	if plan.Unchanged == 0 {
		t.Fatal("fixture left no unchanged tables; proportionality check is vacuous")
	}
	if plan.Updated[0].DatasetID == "" {
		t.Fatal("updated table lost its dataset attribution")
	}

	if err := patched.ApplyDelta(QueryDelta(plan)); err != nil {
		t.Fatal(err)
	}
	if err := Apply(corpusDir, plan); err != nil {
		t.Fatal(err)
	}
	rebuilt := service(t, corpusDir)

	if patched.Hash() != rebuilt.Hash() {
		t.Fatalf("content hash: patched %s, rebuilt %s", patched.HashString(), rebuilt.HashString())
	}
	if patched.NumTables() != rebuilt.NumTables() || patched.NumIndexed() != rebuilt.NumIndexed() {
		t.Fatalf("patched %d tables/%d indexed, rebuilt %d/%d",
			patched.NumTables(), patched.NumIndexed(), rebuilt.NumTables(), rebuilt.NumIndexed())
	}
	if patched.TableIndex(deleted) != -1 {
		t.Fatalf("deleted table %s still resolvable", deleted)
	}

	ctx := context.Background()
	for _, info := range rebuilt.Tables() {
		for _, kind := range []string{query.KindJoin, query.KindUnion, query.KindRank, query.KindProfile} {
			req := query.Request{Kind: kind, Table: info.Name}
			got, gotErr := patched.Do(ctx, req)
			want, wantErr := rebuilt.Do(ctx, req)
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("%s %s: patched answer differs from rebuild\npatched err=%v:\n%s\nrebuilt err=%v:\n%s",
					kind, info.Name, gotErr, got, wantErr, want)
			}
		}
	}

	// Re-detecting against the same snapshot finds nothing left to do.
	again, err := Detect(corpusDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("post-apply detect = %s, want empty", again.Summary())
	}
}

// TestApplyDeltaRejectsInconsistentDelta pins the all-or-nothing
// validation of the live patch path.
func TestApplyDeltaRejectsInconsistentDelta(t *testing.T) {
	corpusDir, snapDir, _, _ := fixture(t)
	svc := service(t, corpusDir)
	before := svc.Hash()

	plan, err := Detect(corpusDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	d := QueryDelta(plan)
	d.Deleted = append(d.Deleted, "no-such-table.csv")
	if err := svc.ApplyDelta(d); err == nil {
		t.Fatal("delta deleting an unknown table must be rejected")
	}
	if svc.Hash() != before {
		t.Fatal("failed ApplyDelta mutated the service")
	}

	dup := QueryDelta(plan)
	dup.Deleted = append(dup.Deleted, dup.Updated[0].Table.Name)
	if err := svc.ApplyDelta(dup); err == nil {
		t.Fatal("delta naming a table twice must be rejected")
	}
}
