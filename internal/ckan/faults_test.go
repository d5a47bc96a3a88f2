package ckan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ogdp/internal/csvio"
	"ogdp/internal/table"
)

// fastClient returns a client tuned for fault tests: near-zero
// backoff so retries are exercised without slowing the suite.
func fastClient(base string, workers, retries int) *Client {
	c := NewClient(base)
	c.Workers = workers
	c.Retries = retries
	c.Backoff = time.Microsecond
	c.Seed = 42
	return c
}

// faultPortal is testPortal scaled out to enough datasets that the
// worker pool actually interleaves requests.
func faultPortal() *Portal {
	p := testPortal()
	for i := 0; i < 10; i++ {
		body := []byte(fmt.Sprintf("id,city,rank\n%d,Kitchener,%d\n%d,Guelph,%d\n", i, i+1, i+10, i+2))
		p.Datasets = append(p.Datasets, &Dataset{
			ID:        fmt.Sprintf("ds-extra-%02d", i),
			Title:     fmt.Sprintf("Extra %d", i),
			Published: time.Date(2019, time.Month(i%12+1), 3, 0, 0, 0, 0, time.UTC),
			Resources: []*Resource{
				{ID: fmt.Sprintf("rx-%02d", i), Name: "extra.csv", Format: "csv",
					URL: fmt.Sprintf("/download/rx-%02d", i), Body: body},
			},
		})
	}
	return p
}

// normalized strips the retry accounting and ledger, leaving the pure
// funnel for comparisons between faulted and fault-free runs (retry
// counts legitimately differ; the funnel must not).
func normalized(s FunnelStats) FunnelStats {
	s.Retries = 0
	s.TransientFailures = 0
	s.Failures = nil
	return s
}

// TestFetchAllRecoversFromTransientFaults: every endpoint fails its
// first two attempts at every request; with a retry budget of three,
// the crawl must reproduce the fault-free funnel and tables exactly.
func TestFetchAllRecoversFromTransientFaults(t *testing.T) {
	s := NewServer(faultPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()

	wantTables, wantStats, err := fastClient(srv.URL, 4, -1).FetchAll()
	if err != nil {
		t.Fatal(err)
	}

	fail2 := FaultSpec{FailFirst: 2}
	s.InjectFaults(Faults{Seed: 1, PackageList: fail2, PackageShow: fail2, Download: fail2})
	gotTables, gotStats, err := fastClient(srv.URL, 4, 3).FetchAll()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(gotTables, wantTables) {
		t.Errorf("tables differ from the fault-free run: %d vs %d", len(gotTables), len(wantTables))
	}
	if got, want := normalized(gotStats), normalized(wantStats); !reflect.DeepEqual(got, want) {
		t.Errorf("funnel differs:\nfaulted    %+v\nfault-free %+v", got, want)
	}
	if gotStats.Retries == 0 || gotStats.TransientFailures == 0 {
		t.Errorf("no retries recorded under FailFirst faults: %+v", gotStats)
	}
	if wantStats.Retries != 0 {
		t.Errorf("fault-free run recorded retries: %+v", wantStats)
	}
}

// TestFetchAllDeterministicAcrossWorkersUnderFaults is the acceptance
// criterion: against a portal injecting ~30% transient faults, the
// crawl is byte-identical for Workers=1 and Workers=8 — including the
// retry counters and the failure ledger — and, with enough retry
// budget, identical to the fault-free funnel.
func TestFetchAllDeterministicAcrossWorkersUnderFaults(t *testing.T) {
	s := NewServer(faultPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()

	faults := Faults{
		Seed:        99,
		PackageList: FaultSpec{Rate500: 0.3},
		PackageShow: FaultSpec{Rate500: 0.3},
		Download:    FaultSpec{Rate500: 0.3, TruncateRate: 0.15},
	}

	s.InjectFaults(faults)
	t1, s1, err := fastClient(srv.URL, 1, 6).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(faults) // reset attempt counters: identical schedule
	t8, s8, err := fastClient(srv.URL, 8, 6).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Errorf("tables differ across worker counts: %d vs %d", len(t1), len(t8))
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("stats differ across worker counts:\nW=1 %+v\nW=8 %+v", s1, s8)
	}
	if s1.Retries == 0 {
		t.Error("a 30% fault rate should force retries")
	}

	s.InjectFaults(Faults{})
	t0, s0, err := fastClient(srv.URL, 4, -1).FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t0) {
		t.Errorf("retries did not recover the fault-free tables: %d vs %d", len(t1), len(t0))
	}
	if got, want := normalized(s1), normalized(s0); !reflect.DeepEqual(got, want) {
		t.Errorf("retries did not recover the fault-free funnel:\nfaulted    %+v\nfault-free %+v", got, want)
	}
}

// TestServerFaultInjectionFailFirst checks the server-side schedule
// directly: two 500s, then the real response.
func TestServerFaultInjectionFailFirst(t *testing.T) {
	s := NewServer(testPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.InjectFaults(Faults{PackageList: FaultSpec{FailFirst: 2}})

	want := []int{500, 500, 200, 200}
	for i, w := range want {
		resp, err := http.Get(srv.URL + "/api/3/action/package_list")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != w {
			t.Errorf("attempt %d: status %d, want %d", i+1, resp.StatusCode, w)
		}
	}
	// Other endpoints are unaffected.
	resp, err := http.Get(srv.URL + "/download/r-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("download with no faults: status %d", resp.StatusCode)
	}
}

// TestServerFaultInjectionTruncates checks that a truncated download
// surfaces as a body-read error on the client side.
func TestServerFaultInjectionTruncates(t *testing.T) {
	s := NewServer(testPortal())
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.InjectFaults(Faults{Download: FaultSpec{TruncateRate: 1}})

	resp, err := http.Get(srv.URL + "/download/r-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("reading a truncated body should fail")
	}
}

// tablePortal serves one table-backed resource; size is its declared
// Size (0 leaves it unknown).
func tablePortal(tb *table.Table, size int64) *Portal {
	return &Portal{Name: "T", Datasets: []*Dataset{{
		ID: "ds-t", Title: "Table", Published: time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC),
		Resources: []*Resource{{ID: "rt", Name: "t.csv", Format: "CSV", URL: "/download/rt", Table: tb, Size: size}},
	}}}
}

// TestTruncatedTableDownloadIsRetried: a table-backed resource is cut
// off exactly like a Body one, declaring its whole CSV length and
// writing the first half, whether or not its Size is known. The client
// sees an unexpected EOF and retries it until the budget runs out.
func TestTruncatedTableDownloadIsRetried(t *testing.T) {
	tb := table.New("t.csv", []string{"id", "city"}, [][]string{
		{"1", "2", "3", "4", "5"},
		{"Waterloo", "Guelph", "Kitchener, ON", "London", "Ottawa"},
	})
	full := csvio.Bytes(tb)
	for _, size := range []int64{int64(len(full)), 0} {
		s := NewServer(tablePortal(tb, size))
		srv := httptest.NewServer(s)
		s.InjectFaults(Faults{Download: FaultSpec{TruncateRate: 1}})

		resp, err := http.Get(srv.URL + "/download/rt")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Size %d: reading a truncated body: %v, want unexpected EOF", size, err)
		}
		if resp.ContentLength != int64(len(full)) || !bytes.Equal(got, full[:len(full)/2]) {
			t.Errorf("Size %d: Content-Length %d, read %q; want %d and the first half of %q", size, resp.ContentLength, got, len(full), full)
		}

		_, stats, err := fastClient(srv.URL, 1, 2).FetchAll()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retries != 2 || stats.TransientFailures != 3 || len(stats.Failures) != 1 {
			t.Fatalf("Size %d: stats %+v, want 2 retries, 3 transient failures, 1 ledger entry", size, stats)
		}
		if f := stats.Failures[0]; f.Attempts != 3 || !strings.Contains(f.Err, "unexpected EOF") {
			t.Errorf("Size %d: ledger entry %+v, want 3 attempts ending in unexpected EOF", size, f)
		}
	}
}

// TestClientDateVariantsAndFormatCase covers the metadata quirks of
// real portals: RFC3339 and fractional-second creation dates, and
// mixed-case format spellings.
func TestClientDateVariantsAndFormatCase(t *testing.T) {
	show := map[string]string{
		"ds-z": `{"success": true, "result": {"id": "ds-z", "title": "Zoned",
			"metadata_created": "2020-05-01T10:00:00Z",
			"resources": [{"id": "rz", "name": "z.csv", "format": "csv", "url": "/dl/t"}]}}`,
		"ds-f": `{"success": true, "result": {"id": "ds-f", "title": "Fractional",
			"metadata_created": "2021-01-02T03:04:05.123456",
			"resources": [{"id": "rf", "name": "f.csv", "format": " Csv ", "url": "/dl/t"}]}}`,
		"ds-b": `{"success": true, "result": {"id": "ds-b", "title": "Bad date",
			"metadata_created": "yesterday",
			"resources": [{"id": "rb", "name": "b.csv", "format": "CSV", "url": "/dl/t"}]}}`,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/3/action/package_list", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"success": true, "result": ["ds-z", "ds-f", "ds-b"]}`))
	})
	mux.HandleFunc("/api/3/action/package_show", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(show[r.URL.Query().Get("id")]))
	})
	mux.HandleFunc("/dl/t", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("a,b\n1,2\n"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := fastClient(srv.URL, 1, -1)
	tables, stats, err := client.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tables != 3 || stats.Readable != 3 {
		t.Fatalf("mixed-case formats dropped: %+v", stats)
	}
	if stats.UnparsedDates != 1 {
		t.Errorf("UnparsedDates = %d, want 1", stats.UnparsedDates)
	}
	byDS := map[string]time.Time{}
	for _, ft := range tables {
		byDS[ft.DatasetID] = ft.Published
	}
	if byDS["ds-z"].Year() != 2020 || byDS["ds-z"].Hour() != 10 {
		t.Errorf("RFC3339 date = %v", byDS["ds-z"])
	}
	if byDS["ds-f"].Year() != 2021 || byDS["ds-f"].Nanosecond() == 0 {
		t.Errorf("fractional date = %v", byDS["ds-f"])
	}
	if !byDS["ds-b"].IsZero() {
		t.Errorf("unparseable date should stay zero, got %v", byDS["ds-b"])
	}
}

// TestZeroValueClientHasTimeout: the zero-value Client must never
// fall back to the timeout-less http.DefaultClient.
func TestZeroValueClientHasTimeout(t *testing.T) {
	var c Client
	hc := c.httpClient()
	if hc == http.DefaultClient {
		t.Fatal("zero-value Client uses http.DefaultClient")
	}
	if hc.Timeout <= 0 {
		t.Errorf("default transport timeout = %v, want > 0", hc.Timeout)
	}
}

// TestFetchAllContextCanceled: a canceled context stops the crawl
// promptly with the context error, not a hang or a panic.
func TestFetchAllContextCanceled(t *testing.T) {
	srv := httptest.NewServer(NewServer(testPortal()))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := fastClient(srv.URL, 2, 3).FetchAllContext(ctx)
	if err == nil {
		t.Fatal("want an error from a canceled context")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}
