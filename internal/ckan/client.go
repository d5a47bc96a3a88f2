package ckan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"ogdp/internal/csvio"
	"ogdp/internal/obs"
	"ogdp/internal/parallel"
	"ogdp/internal/sniff"
	"ogdp/internal/table"
)

// Default knobs for the fetch pipeline.
const (
	// DefaultTimeout is the per-request deadline when Client.Timeout is
	// zero. The zero-value Client's HTTP transport carries the same
	// timeout, so a portal that accepts a connection and then stalls
	// can never hang the crawl.
	DefaultTimeout = 30 * time.Second
	// DefaultRetries is the transient-failure retry budget when
	// Client.Retries is zero.
	DefaultRetries = 2
	// DefaultBackoff is the nominal delay before the first retry when
	// Client.Backoff is zero; later retries double it, with
	// deterministic seeded jitter.
	DefaultBackoff = 100 * time.Millisecond
)

// Ledger stages, the pipeline phases a request can permanently fail in.
const (
	StagePackageList = "package_list"
	StagePackageShow = "package_show"
	StageDownload    = "download"
)

// defaultHTTPClient backs Clients without an explicit HTTPClient.
// Unlike http.DefaultClient it has a timeout, so even a zero-value
// Client cannot hang forever on a stalled server.
var defaultHTTPClient = &http.Client{Timeout: DefaultTimeout}

// Client fetches a portal's CSV resources through the CKAN API,
// reproducing the paper's acquisition pipeline. Real portals fail
// constantly — only ~77–95% of advertised CSVs are downloadable at
// all (Table 1) — so the client is built for graceful degradation:
// transient failures (5xx, timeouts, truncated bodies) are retried
// with deterministic exponential backoff, permanent failures are
// recorded in a ledger and skipped, and requests fan out over a
// bounded worker pool with results merged in dataset-index order so
// output is byte-identical for every worker count.
type Client struct {
	// BaseURL of the CKAN API, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a DefaultTimeout timeout.
	HTTPClient *http.Client
	// ReadOptions tunes the parsing step.
	ReadOptions csvio.Options
	// Workers bounds the concurrent package_show and download
	// requests: 0 uses all CPUs, 1 runs sequentially. Results are
	// identical for every value.
	Workers int
	// Retries is the number of extra attempts after a transient
	// failure. Zero selects DefaultRetries; negative disables retries.
	Retries int
	// Timeout is the per-request deadline. Zero selects DefaultTimeout.
	Timeout time.Duration
	// Backoff is the nominal delay before the first retry, doubling
	// per attempt with seeded jitter. Zero selects DefaultBackoff;
	// negative disables waiting (useful in tests).
	Backoff time.Duration
	// Seed salts the retry jitter so backoff schedules are
	// reproducible run to run.
	Seed int64

	// Metrics, when non-nil, receives the fetch pipeline's counters
	// and histograms (requests, retries, fault classifications,
	// backoff delays, body sizes, funnel stages). Everything recorded
	// through it is deterministic for a fixed portal, seed, and fault
	// schedule — durations enter only via Now.
	Metrics *obs.Registry
	// MetricLabels are extra name, value pairs stamped on every
	// series this client records (the study pipeline passes
	// "portal", name so per-portal crawls stay distinguishable).
	MetricLabels []string
	// Trace, when non-nil, gains one child span per pipeline stage
	// (package_list, package_show, download) carrying task, item, and
	// byte counts.
	Trace *obs.Span
	// Now, when non-nil, measures per-request wall time into the
	// ogdp_fetch_request_seconds histogram. Leave nil (the default)
	// to keep the metrics snapshot free of wall-clock values; the
	// CLIs inject time.Now only under -trace.
	Now func() time.Time
}

// NewClient creates a fetch client for the portal at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: DefaultTimeout},
	}
}

// FetchedTable is a resource that survived the full pipeline.
type FetchedTable struct {
	DatasetID    string
	DatasetTitle string
	Published    time.Time
	Resource     string
	Table        *table.Table
	RawSize      int64 // bytes of the raw CSV body
}

// FetchFailure is one permanently failed request in the acquisition
// error ledger: it was retried while its failures looked transient,
// then given up on and skipped without aborting the crawl.
type FetchFailure struct {
	// Stage is the pipeline stage that failed: StagePackageList,
	// StagePackageShow or StageDownload.
	Stage string
	// DatasetID and ResourceID locate the failed request; ResourceID
	// is empty for metadata failures.
	DatasetID  string
	ResourceID string
	// Attempts is how many times the request was tried.
	Attempts int
	// Err is the final error, kept as a string so ledgers compare
	// cleanly across runs.
	Err string
}

// FunnelStats counts resources through the pipeline stages the paper
// reports in Table 1, plus the fault accounting of the crawl itself.
type FunnelStats struct {
	Datasets     int
	Tables       int // resources advertised as CSV
	Downloadable int // HTTP 200
	Readable     int // sniffed as tabular, header inferred, parsed
	TooWide      int // rejected by the wide-table cutoff
	// UnparsedDates counts datasets whose metadata_created matched no
	// accepted layout; their publication date is left zero rather than
	// silently skewing the growth analysis.
	UnparsedDates int
	// Retries counts retry attempts performed after transient
	// failures.
	Retries int
	// TransientFailures counts request attempts that failed in a
	// retryable way (5xx, timeout, truncated body), whether or not a
	// later attempt succeeded.
	TransientFailures int
	// PermanentFailures counts requests that failed for good: a
	// non-downloadable resource, or transient faults outlasting the
	// retry budget.
	PermanentFailures int
	// Failures is the per-stage ledger of permanent failures, in
	// deterministic (dataset, resource) order.
	Failures []FetchFailure
}

// tally counts the request attempts behind one logical fetch.
type tally struct {
	attempts  int
	retries   int
	transient int
}

func (s *FunnelStats) add(t tally) {
	s.Retries += t.retries
	s.TransientFailures += t.transient
}

// FetchAll runs the pipeline over every dataset in the portal and
// returns the readable tables along with funnel statistics. It is
// FetchAllContext with a background context.
func (c *Client) FetchAll() ([]*FetchedTable, FunnelStats, error) {
	return c.FetchAllContext(context.Background())
}

// FetchAllContext crawls the portal under ctx. Individual dataset or
// resource failures are never fatal: transient ones are retried, and
// permanent ones are recorded in the stats ledger and skipped, so the
// crawl returns partial results. The only error conditions are an
// unreachable package_list (there is nothing to crawl) and context
// cancellation.
func (c *Client) FetchAllContext(ctx context.Context) ([]*FetchedTable, FunnelStats, error) {
	return c.crawl(ctx, true)
}

// Funnel crawls the portal under ctx like FetchAllContext and returns
// only its statistics. Bodies are sniffed and parsed as FetchAll does,
// but through csvio.ReadShape, so no table is built; the counters,
// ledger and trace spans it records equal FetchAll's.
func (c *Client) Funnel(ctx context.Context) (FunnelStats, error) {
	_, stats, err := c.crawl(ctx, false)
	return stats, err
}

// crawl is the pipeline behind FetchAllContext and Funnel; keep
// selects whether readable bodies become tables or are only counted.
func (c *Client) crawl(ctx context.Context, keep bool) ([]*FetchedTable, FunnelStats, error) {
	var stats FunnelStats
	spanList := c.Trace.Child(StagePackageList)
	ids, lt, err := c.packageList(ctx)
	spanList.AddTasks(1)
	spanList.AddItems(len(ids))
	spanList.End()
	stats.add(lt)
	if err != nil {
		stats.PermanentFailures++
		stats.Failures = append(stats.Failures, FetchFailure{
			Stage: StagePackageList, Attempts: lt.attempts, Err: err.Error(),
		})
		c.recordFunnel(stats)
		return nil, stats, err
	}
	stats.Datasets = len(ids)
	spanShow := c.Trace.Child(StagePackageShow)
	spanShow.AddTasks(len(ids))

	// Stage 1: dataset metadata, fanned out index-addressed over the
	// pool.
	type showResult struct {
		pkg   *packageJSON
		tally tally
		err   error
	}
	shows, err := parallel.Map(ctx, len(ids), c.Workers, func(i int) showResult {
		pkg, t, err := c.packageShow(ctx, ids[i])
		return showResult{pkg: pkg, tally: t, err: err}
	})
	if err != nil {
		return nil, stats, err
	}

	// Merge metadata in dataset order and flatten the advertised CSV
	// resources into one work list, so stage 2 shares a single bounded
	// pool across datasets of any shape.
	type workItem struct {
		pkg       *packageJSON
		res       resourceJSON
		published time.Time
	}
	var work []workItem
	for i, sr := range shows {
		stats.add(sr.tally)
		if sr.err != nil {
			stats.PermanentFailures++
			stats.Failures = append(stats.Failures, FetchFailure{
				Stage: StagePackageShow, DatasetID: ids[i],
				Attempts: sr.tally.attempts, Err: sr.err.Error(),
			})
			continue
		}
		published, ok := parseCreated(sr.pkg.Created)
		if !ok {
			stats.UnparsedDates++
		}
		for _, res := range sr.pkg.Resources {
			if !IsCSVFormat(res.Format) {
				continue
			}
			work = append(work, workItem{pkg: sr.pkg, res: res, published: published})
		}
	}
	stats.Tables = len(work)
	spanShow.AddItems(len(work))
	spanShow.End()
	spanDownload := c.Trace.Child(StageDownload)
	spanDownload.AddTasks(len(work))

	// Stage 2: downloads and parsing over the same pool.
	type fetchResult struct {
		table    *table.Table // nil unless keep
		readable bool
		wide     bool
		size     int64
		tally    tally
		err      error
	}
	results, err := parallel.Map(ctx, len(work), c.Workers, func(i int) fetchResult {
		w := work[i]
		body, t, err := c.download(ctx, w.res.ID, w.res.URL)
		r := fetchResult{tally: t, err: err}
		if err != nil {
			return r
		}
		r.size = int64(body.Len())
		r.table, r.readable, r.wide = c.process(w.res.Name, body.Bytes(), keep)
		putBody(body)
		return r
	})
	if err != nil {
		return nil, stats, err
	}

	var out []*FetchedTable
	for i, r := range results {
		w := work[i]
		stats.add(r.tally)
		if r.err != nil {
			stats.PermanentFailures++
			stats.Failures = append(stats.Failures, FetchFailure{
				Stage: StageDownload, DatasetID: w.pkg.ID, ResourceID: w.res.ID,
				Attempts: r.tally.attempts, Err: r.err.Error(),
			})
			continue
		}
		stats.Downloadable++
		if r.wide {
			stats.TooWide++
			continue
		}
		if !r.readable {
			continue
		}
		stats.Readable++
		spanDownload.AddBytes(r.size)
		if keep {
			r.table.DatasetID = w.pkg.ID
			out = append(out, &FetchedTable{
				DatasetID: w.pkg.ID, DatasetTitle: w.pkg.Title, Published: w.published,
				Resource: w.res.ID, Table: r.table, RawSize: r.size,
			})
		}
	}
	spanDownload.AddItems(stats.Readable)
	spanDownload.End()
	c.recordFunnel(stats)
	return out, stats, nil
}

// recordFunnel publishes the crawl's funnel and fault totals as
// counters. Everything here derives from FunnelStats, which is already
// deterministic for every worker count.
func (c *Client) recordFunnel(stats FunnelStats) {
	r := c.Metrics
	if r == nil {
		return
	}
	ls := c.MetricLabels
	add := func(name, help string, n int) {
		r.Counter(name, help, ls...).Add(int64(n))
	}
	add("ogdp_fetch_datasets_total", "Datasets advertised by package_list.", stats.Datasets)
	add("ogdp_fetch_csv_resources_total", "Resources advertised as CSV (the paper's Tables column).", stats.Tables)
	add("ogdp_fetch_downloadable_total", "CSV resources that answered HTTP 200.", stats.Downloadable)
	add("ogdp_fetch_readable_total", "Resources sniffed as tabular and parsed.", stats.Readable)
	add("ogdp_fetch_too_wide_total", "Resources rejected by the wide-table cutoff.", stats.TooWide)
	add("ogdp_fetch_unparsed_dates_total", "Datasets whose metadata_created matched no accepted layout.", stats.UnparsedDates)
	for _, f := range stats.Failures {
		r.Counter("ogdp_fetch_permanent_failures_total",
			"Requests that permanently failed and were skipped, by stage.",
			c.stageLabels(f.Stage)...).Inc()
	}
}

// createdLayouts are the metadata_created shapes real portals emit:
// CKAN's naive ISO-8601 with optional fractional seconds, RFC3339
// (zoned, optional fractions), and bare dates.
var createdLayouts = []string{
	"2006-01-02T15:04:05",
	"2006-01-02T15:04:05.999999999",
	time.RFC3339Nano,
	"2006-01-02",
}

func parseCreated(s string) (time.Time, bool) {
	for _, layout := range createdLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts, true
		}
	}
	return time.Time{}, false
}

// process runs sniffing, header inference and parsing over one
// downloaded body: a resource is readable when it parses into a table
// with at least one column and one row, and wide when the wide-table
// cutoff rejects it. With keep the readable table is returned; without,
// the body is parsed by csvio.ReadShape and no table is built.
func (c *Client) process(name string, body []byte, keep bool) (t *table.Table, readable, wide bool) {
	format := sniff.Detect(body)
	if !format.IsTabular() {
		return nil, false, false
	}
	opts := c.ReadOptions
	if format == sniff.FormatTSV {
		opts.Comma = '\t'
	}
	var shape csvio.Shape
	var err error
	if keep {
		if t, err = csvio.ReadWith(name, bytes.NewReader(body), opts); err == nil {
			shape = csvio.Shape{Cols: t.NumCols(), Rows: t.NumRows()}
		}
	} else {
		shape, err = csvio.ReadShape(name, bytes.NewReader(body), opts)
	}
	if err != nil {
		return nil, false, errors.Is(err, csvio.ErrTooWide)
	}
	if shape.Cols == 0 || shape.Rows == 0 {
		return nil, false, false
	}
	return t, true, false
}

func (c *Client) packageList(ctx context.Context) ([]string, tally, error) {
	body, status, t, err := c.getWithRetry(ctx, StagePackageList, "package_list", c.BaseURL+"/api/3/action/package_list")
	if err != nil {
		return nil, t, fmt.Errorf("ckan: package_list: %w", err)
	}
	defer putBody(body)
	if status != http.StatusOK {
		return nil, t, fmt.Errorf("ckan: package_list: status %d", status)
	}
	var resp struct {
		Success bool     `json:"success"`
		Result  []string `json:"result"`
	}
	if err := json.Unmarshal(body.Bytes(), &resp); err != nil {
		return nil, t, fmt.Errorf("ckan: package_list: %w", err)
	}
	if !resp.Success {
		return nil, t, fmt.Errorf("ckan: package_list unsuccessful")
	}
	return resp.Result, t, nil
}

func (c *Client) packageShow(ctx context.Context, id string) (*packageJSON, tally, error) {
	u := c.BaseURL + "/api/3/action/package_show?id=" + url.QueryEscape(id)
	body, status, t, err := c.getWithRetry(ctx, StagePackageShow, "package_show:"+id, u)
	if err != nil {
		return nil, t, fmt.Errorf("ckan: package_show(%s): %w", id, err)
	}
	defer putBody(body)
	if status != http.StatusOK {
		return nil, t, fmt.Errorf("ckan: package_show(%s): status %d", id, status)
	}
	var resp struct {
		Success bool        `json:"success"`
		Result  packageJSON `json:"result"`
	}
	if err := json.Unmarshal(body.Bytes(), &resp); err != nil {
		return nil, t, fmt.Errorf("ckan: package_show(%s): %w", id, err)
	}
	if !resp.Success {
		return nil, t, fmt.Errorf("ckan: package_show(%s) unsuccessful", id)
	}
	return &resp.Result, t, nil
}

// download fetches a resource URL with retries. A non-nil error is the
// permanent failure — non-200 status (the paper's "not downloadable"
// criterion) or exhausted transport retries — recorded in the ledger.
// The caller returns the body with putBody once it has parsed it.
func (c *Client) download(ctx context.Context, resID, resourceURL string) (*bytes.Buffer, tally, error) {
	u := resourceURL
	if len(u) > 0 && u[0] == '/' {
		u = c.BaseURL + u
	}
	body, status, t, err := c.getWithRetry(ctx, StageDownload, "download:"+resID, u)
	if err != nil {
		return nil, t, err
	}
	if status != http.StatusOK {
		putBody(body)
		return nil, t, fmt.Errorf("status %d", status)
	}
	return body, t, nil
}

// stageMetrics bundles the per-stage series of the retry loop. All
// handles are nil (and so no-ops) when the client carries no registry.
type stageMetrics struct {
	requests   *obs.Counter
	retries    *obs.Counter
	bytes      *obs.Counter
	bodyBytes  *obs.Histogram
	backoff    *obs.Histogram
	reqSeconds *obs.Histogram // only under an injected clock
	failures   func(kind string) *obs.Counter
}

// stageLabels returns the client's MetricLabels plus the stage label
// and any extra pairs — the label set shared by per-stage series.
func (c *Client) stageLabels(stage string, extra ...string) []string {
	kv := make([]string, 0, len(c.MetricLabels)+2+len(extra))
	kv = append(kv, c.MetricLabels...)
	kv = append(kv, "stage", stage)
	return append(kv, extra...)
}

func (c *Client) stageMetrics(stage string) stageMetrics {
	r := c.Metrics
	ls := c.stageLabels(stage)
	sm := stageMetrics{
		requests: r.Counter("ogdp_fetch_requests_total",
			"HTTP request attempts issued by the fetch pipeline.", ls...),
		retries: r.Counter("ogdp_fetch_retries_total",
			"Retry attempts performed after transient failures.", ls...),
		bytes: r.Counter("ogdp_fetch_bytes_total",
			"Response body bytes received on successful requests.", ls...),
		bodyBytes: r.Histogram("ogdp_fetch_body_bytes",
			"Response body size per successful request, in bytes.",
			obs.SizeBuckets, ls...),
		backoff: r.Histogram("ogdp_fetch_backoff_seconds",
			"Deterministic seeded backoff delay before each retry, in seconds.",
			obs.DurationBuckets, ls...),
		failures: func(kind string) *obs.Counter {
			return r.Counter("ogdp_fetch_attempt_failures_total",
				"Request attempts that failed transiently, by fault kind.",
				c.stageLabels(stage, "kind", kind)...)
		},
	}
	if c.Now != nil {
		sm.reqSeconds = r.Histogram("ogdp_fetch_request_seconds",
			"Wall time per request attempt, in seconds (recorded only under -trace's injected clock).",
			obs.DurationBuckets, ls...)
	}
	return sm
}

// getWithRetry GETs u under the per-request deadline, retrying
// transient failures — 5xx statuses, timeouts, connection errors,
// truncated bodies — with deterministic exponential backoff. stage
// names the pipeline stage for metric labels; key salts the backoff
// jitter per logical request. It returns the final body and status;
// err is non-nil only when the last attempt still failed transiently.
// A returned body is pooled: the caller hands it back with putBody
// once it is done with its bytes, and keeps no reference to them.
func (c *Client) getWithRetry(ctx context.Context, stage, key, u string) (*bytes.Buffer, int, tally, error) {
	base := c.backoffBase()
	bo := parallel.Backoff{Base: base, Max: 32 * base, Seed: c.Seed}
	retries := c.retryBudget()
	sm := c.stageMetrics(stage)
	var t tally
	for attempt := 1; ; attempt++ {
		t.attempts++
		sm.requests.Inc()
		var start time.Time
		if c.Now != nil {
			start = c.Now()
		}
		body, status, err := c.getOnce(ctx, u)
		if c.Now != nil {
			sm.reqSeconds.ObserveDuration(c.Now().Sub(start))
		}
		if err == nil && status < 500 {
			sm.bytes.Add(int64(body.Len()))
			sm.bodyBytes.Observe(float64(body.Len()))
			return body, status, t, nil
		}
		putBody(body)
		kind := "transport"
		if err == nil {
			err = fmt.Errorf("status %d", status)
			kind = "status_5xx"
		}
		t.transient++
		sm.failures(kind).Inc()
		if attempt > retries || ctx.Err() != nil {
			return nil, status, t, err
		}
		t.retries++
		sm.retries.Inc()
		// The delay is a pure function of (Seed, key, attempt), so this
		// histogram is byte-identical for every worker count even under
		// injected faults.
		sm.backoff.Observe(bo.Delay(key, attempt).Seconds())
		if bo.Sleep(ctx, key, attempt) != nil {
			return nil, status, t, err
		}
	}
}

// bodyPool recycles response body buffers across requests, so a crawl
// allocates its body buffers once instead of once per response.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPreGrow caps how far a declared Content-Length pre-grows a body
// buffer; a larger body still reads whole, growing as it arrives.
const maxPreGrow = 64 << 20

// putBody returns a body buffer to the pool. body may be nil.
func putBody(body *bytes.Buffer) {
	if body != nil {
		body.Reset()
		bodyPool.Put(body)
	}
}

// getOnce issues one GET and reads the whole body into a pooled buffer.
// A body that fails mid-read is an error, so the attempt is retried.
func (c *Client) getOnce(ctx context.Context, u string) (*bytes.Buffer, int, error) {
	reqCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body := bodyPool.Get().(*bytes.Buffer)
	if n := resp.ContentLength; n > 0 && n <= maxPreGrow {
		// ReadFrom asks for MinRead spare bytes before it sees EOF.
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		putBody(body)
		return nil, resp.StatusCode, fmt.Errorf("reading body: %w", err)
	}
	return body, resp.StatusCode, nil
}

func (c *Client) retryBudget() int {
	switch {
	case c.Retries < 0:
		return 0
	case c.Retries == 0:
		return DefaultRetries
	}
	return c.Retries
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) backoffBase() time.Duration {
	switch {
	case c.Backoff < 0:
		return 0
	case c.Backoff == 0:
		return DefaultBackoff
	}
	return c.Backoff
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}
