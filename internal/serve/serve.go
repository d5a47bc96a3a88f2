package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ogdp/internal/obs"
	"ogdp/internal/query"
)

// Defaults for Options zero values.
const (
	DefaultMaxConcurrent = 4
	DefaultQueueDepth    = 16
	DefaultTimeout       = 30 * time.Second
	DefaultCacheEntries  = 256
)

// Options configures a Server. Zero values pick the defaults above;
// CacheEntries < 0 disables the result cache.
type Options struct {
	// MaxConcurrent caps queries executing at once.
	MaxConcurrent int
	// QueueDepth caps queries waiting for an execution slot; arrivals
	// beyond it are rejected with 429 and a Retry-After hint.
	QueueDepth int
	// Timeout bounds one query's execution (queue wait included).
	Timeout time.Duration
	// CacheEntries caps the LRU result cache (< 0 disables it).
	CacheEntries int
	// Registry receives request metrics; nil disables them (obs
	// metrics no-op on nil receivers).
	Registry *obs.Registry
}

// Server serves join/union/profile/fd queries over one loaded
// corpus. It is an http.Handler; all state after construction is
// either immutable (the query service) or internally synchronized
// (cache, admission channels, metrics), so one Server handles any
// number of concurrent requests.
type Server struct {
	svc     *query.Service
	mux     *http.ServeMux
	cache   *resultCache
	sem     chan struct{} // execution slots
	queue   chan struct{} // wait-queue slots
	timeout time.Duration

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	rejected    *obs.Counter
	queueDepth  *obs.Gauge
	inflight    *obs.Gauge
	requests    func(endpoint string, status int) *obs.Counter
	latency     func(endpoint string) *obs.Histogram
}

// New builds a Server over svc. The *obs.Registry in opts may be
// nil; every metric then degrades to a no-op.
func New(svc *query.Service, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.CacheEntries == 0 {
		opts.CacheEntries = DefaultCacheEntries
	}
	reg := opts.Registry
	s := &Server{
		svc:     svc,
		cache:   newResultCache(opts.CacheEntries),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		queue:   make(chan struct{}, opts.QueueDepth),
		timeout: opts.Timeout,
		cacheHits: reg.Counter("ogdp_serve_cache_hits_total",
			"Queries answered from the result cache."),
		cacheMisses: reg.Counter("ogdp_serve_cache_misses_total",
			"Queries executed because the result cache missed."),
		rejected: reg.Counter("ogdp_serve_rejected_total",
			"Queries rejected with 429 because the wait queue was full."),
		queueDepth: reg.Gauge("ogdp_serve_queue_depth",
			"Queries currently waiting for an execution slot."),
		inflight: reg.Gauge("ogdp_serve_inflight",
			"Queries currently executing."),
		requests: func(endpoint string, status int) *obs.Counter {
			return reg.Counter("ogdp_serve_requests_total",
				"Requests served, by endpoint and HTTP status.",
				"endpoint", endpoint, "status", strconv.Itoa(status))
		},
		latency: func(endpoint string) *obs.Histogram {
			return reg.Histogram("ogdp_serve_request_seconds",
				"Request latency by endpoint.", obs.DurationBuckets,
				"endpoint", endpoint)
		},
	}
	s.mux = http.NewServeMux()
	// Endpoint paths mirror the kind names except ranked retrieval,
	// which serves under /search (the service the ROADMAP names).
	for _, ep := range []struct{ path, kind string }{
		{"/" + query.KindJoin, query.KindJoin},
		{"/" + query.KindUnion, query.KindUnion},
		{"/" + query.KindProfile, query.KindProfile},
		{"/" + query.KindFD, query.KindFD},
		{"/search", query.KindRank},
	} {
		ep := ep
		s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) {
			s.handleQuery(w, r, ep.path, ep.kind)
		})
	}
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	debug := obs.NewDebugHandler(reg)
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/debug/pprof/", debug)
	return s
}

// Service returns the underlying query service.
func (s *Server) Service() *query.Service { return s.svc }

// CacheLen reports the current number of cached results.
func (s *Server) CacheLen() int { return s.cache.Len() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleQuery is the common path of the query endpoints: parse,
// admit, consult the cache, execute, respond.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, endpoint, kind string) {
	start := time.Now()
	status := s.answerQuery(w, r, kind)
	s.requests(endpoint, status).Inc()
	s.latency(endpoint).ObserveDuration(time.Since(start))
}

// answerQuery writes the response and returns the HTTP status sent.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, kind string) int {
	if r.Method != http.MethodGet {
		return s.textError(w, http.StatusMethodNotAllowed, "only GET is supported")
	}
	q := r.URL.Query()
	req := query.Request{
		Kind:  kind,
		Table: q.Get("table"),
		Col:   q.Get("col"),
	}
	if req.Table == "" {
		return s.textError(w, http.StatusBadRequest, "missing table parameter")
	}
	var err error
	if req.K, err = intParam(q.Get("k")); err != nil {
		return s.textError(w, http.StatusBadRequest, fmt.Sprintf("bad k parameter: %v", err))
	}
	if req.MaxLHS, err = intParam(q.Get("lhs")); err != nil {
		return s.textError(w, http.StatusBadRequest, fmt.Sprintf("bad lhs parameter: %v", err))
	}
	req = req.Normalize()

	// One read of the service per request: the header, the cache key
	// and the body all come from the same corpus.
	svc := s.svc
	hash := svc.HashString()
	w.Header().Set("X-Ogdp-Corpus", hash)
	key := hash + " " + req.Key()
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Inc()
		w.Header().Set("X-Ogdp-Cache", "hit")
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, body)
		return http.StatusOK
	}
	s.cacheMisses.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	release, admitted := s.admit(ctx)
	if !admitted {
		if ctx.Err() != nil {
			return s.textError(w, http.StatusServiceUnavailable, "timed out waiting for an execution slot")
		}
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		return s.textError(w, http.StatusTooManyRequests, "server saturated: execution slots and wait queue are full")
	}
	defer release()

	body, err := svc.Do(ctx, req)
	switch {
	case err == nil:
	case errors.Is(err, query.ErrNotFound):
		return s.textError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, query.ErrBadRequest):
		return s.textError(w, http.StatusBadRequest, err.Error())
	case ctx.Err() != nil:
		return s.textError(w, http.StatusServiceUnavailable, fmt.Sprintf("query timed out after %s", s.timeout))
	default:
		return s.textError(w, http.StatusInternalServerError, err.Error())
	}
	s.cache.Put(key, body)
	w.Header().Set("X-Ogdp-Cache", "miss")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, body)
	return http.StatusOK
}

// admit acquires an execution slot, waiting in the bounded queue if
// none is free. It returns (release, true) on success; the caller
// must call release. A false return means either the queue was full
// (backpressure) or ctx expired while waiting.
func (s *Server) admit(ctx context.Context) (release func(), admitted bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		// No free slot: try to take a place in the wait queue.
		select {
		case s.queue <- struct{}{}:
		default:
			return nil, false
		}
		s.queueDepth.Add(1)
		defer func() {
			s.queueDepth.Add(-1)
			<-s.queue
		}()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false
		}
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.sem
	}, true
}

// tablesResponse is the /tables JSON document.
type tablesResponse struct {
	Portal    string            `json:"portal"`
	Corpus    string            `json:"corpus_hash"`
	NumTables int               `json:"num_tables"`
	Indexed   int               `json:"indexed_columns"`
	Kinds     string            `json:"kinds"`
	Tables    []query.TableInfo `json:"tables"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	if r.Method != http.MethodGet {
		status = s.textError(w, http.StatusMethodNotAllowed, "only GET is supported")
	} else {
		svc := s.svc
		hash := svc.HashString()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Ogdp-Corpus", hash)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tablesResponse{
			Portal:    svc.PortalID(),
			Corpus:    hash,
			NumTables: svc.NumTables(),
			Indexed:   svc.NumIndexed(),
			Kinds:     query.Kinds(),
			Tables:    svc.Tables(),
		}); err != nil {
			status = http.StatusInternalServerError
		}
	}
	s.requests("/tables", status).Inc()
	s.latency("/tables").ObserveDuration(time.Since(start))
}

// textError writes a plain-text error response and returns the
// status for the request counter.
func (s *Server) textError(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, msg)
	return status
}

// intParam parses an optional non-negative integer query parameter;
// empty means 0 (the Normalize default).
func intParam(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%q is not an integer", v)
	}
	if n < 0 {
		return 0, fmt.Errorf("%d is negative", n)
	}
	return n, nil
}
