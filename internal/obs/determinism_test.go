package obs_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ogdp/internal/ckan"
	"ogdp/internal/gen"
	"ogdp/internal/obs"
)

// crawl runs a full fetch against a freshly built faulty copy of the
// named portal profile with the given worker count and renders the
// resulting metrics snapshot and span tree as text plus the snapshot
// as JSON. With countOnly the crawl is Funnel's instead of FetchAll's.
func crawl(t *testing.T, portal string, workers int, countOnly bool) (text, jsonOut, tree string, stats ckan.FunnelStats) {
	t.Helper()
	prof, ok := gen.ProfileByName(portal)
	if !ok {
		t.Fatalf("%s portal profile missing", portal)
	}
	corpus := gen.Generate(prof, 0.1, 1)
	server := ckan.NewServer(gen.BuildPortal(corpus, 1))
	server.InjectFaults(ckan.Faults{
		Seed:        7,
		PackageShow: ckan.FaultSpec{Rate500: 0.3},
		Download:    ckan.FaultSpec{Rate500: 0.3, TruncateRate: 0.1},
	})
	srv := httptest.NewServer(server)
	defer srv.Close()

	reg := obs.NewRegistry()
	root := obs.NewTrace("fetch")
	client := ckan.NewClient(srv.URL)
	client.Workers = workers
	client.Seed = 1
	client.Retries = 6
	client.Backoff = -1
	client.Metrics = reg
	client.MetricLabels = []string{"portal", portal}
	client.Trace = root

	var err error
	if countOnly {
		stats, err = client.Funnel(context.Background())
	} else {
		_, stats, err = client.FetchAll()
	}
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var a, b, c strings.Builder
	snap.WriteText(&a)
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	root.WriteTree(&c)
	return a.String(), b.String(), c.String(), stats
}

// TestSnapshotDeterministicAcrossWorkers is the package's acceptance
// criterion end to end: a crawl against a portal injecting ~30%
// transient faults must produce byte-identical metrics text, metrics
// JSON, and span trees for Workers=1 and Workers=8. Everything the
// registry records — request attempts, retries, backoff histograms,
// failure kinds, funnel counters — is a pure function of (portal,
// seeds), never of scheduling.
func TestSnapshotDeterministicAcrossWorkers(t *testing.T) {
	text1, json1, tree1, _ := crawl(t, "SG", 1, false)
	text8, json8, tree8, _ := crawl(t, "SG", 8, false)

	if text1 != text8 {
		t.Errorf("metrics text differs between workers=1 and workers=8:\n--- w1 ---\n%s--- w8 ---\n%s", text1, text8)
	}
	if json1 != json8 {
		t.Error("metrics JSON differs between workers=1 and workers=8")
	}
	if tree1 != tree8 {
		t.Errorf("span tree differs between workers=1 and workers=8:\n--- w1 ---\n%s--- w8 ---\n%s", tree1, tree8)
	}

	// The run must actually have exercised the interesting paths:
	// faults were injected, so retries and failure counters are
	// non-zero, and all three fetch stages appear in the tree.
	if !strings.Contains(text1, "ogdp_fetch_retries_total") {
		t.Error("no retry counters recorded under 30% faults")
	}
	if !strings.Contains(text1, `ogdp_fetch_attempt_failures_total{kind="status_5xx"`) {
		t.Error("no 5xx failure counters recorded under Rate500 faults")
	}
	for _, stage := range []string{ckan.StagePackageList, ckan.StagePackageShow, ckan.StageDownload} {
		if !strings.Contains(tree1, stage) {
			t.Errorf("span tree missing stage %q:\n%s", stage, tree1)
		}
	}
	if strings.Contains(tree1, "wall=") || strings.Contains(text1, "request_seconds") {
		t.Error("deterministic run must not record wall time (no clock was injected)")
	}
}

// TestSnapshotDeterministicRepeatRuns re-runs the same configuration
// and requires byte-identical output — the same contract the CLI's
// -metrics flag promises across invocations.
func TestSnapshotDeterministicRepeatRuns(t *testing.T) {
	textA, jsonA, treeA, _ := crawl(t, "SG", 4, false)
	textB, jsonB, treeB, _ := crawl(t, "SG", 4, false)
	if textA != textB || jsonA != jsonB || treeA != treeB {
		t.Error("repeat runs with identical configuration rendered differently")
	}
}

// TestFunnelRecordsWhatFetchAllDoes: the count-only crawl returns
// FetchAll's funnel statistics and records byte-identical metrics and
// span trees (item and byte counts included) at one and eight workers,
// on a portal with broken, wide and faulty resources.
func TestFunnelRecordsWhatFetchAllDoes(t *testing.T) {
	for _, workers := range []int{1, 8} {
		text, jsonOut, tree, stats := crawl(t, "UK", workers, false)
		cText, cJSON, cTree, cStats := crawl(t, "UK", workers, true)
		if !reflect.DeepEqual(stats, cStats) {
			t.Errorf("workers=%d: Funnel stats %+v, FetchAll %+v", workers, cStats, stats)
		}
		if text != cText || jsonOut != cJSON {
			t.Errorf("workers=%d: Funnel metrics differ from FetchAll's:\n--- FetchAll ---\n%s--- Funnel ---\n%s", workers, text, cText)
		}
		if tree != cTree {
			t.Errorf("workers=%d: Funnel span tree differs from FetchAll's:\n--- FetchAll ---\n%s--- Funnel ---\n%s", workers, tree, cTree)
		}
		if stats.Readable == 0 || stats.TooWide == 0 || stats.Readable == stats.Downloadable-stats.TooWide {
			t.Errorf("workers=%d: portal exercises too little of the funnel: %+v", workers, stats)
		}
	}
}
