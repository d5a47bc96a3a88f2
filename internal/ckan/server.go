package ckan

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ogdp/internal/parallel"
)

// Server exposes a Portal over the CKAN Action API v3 surface the
// paper's pipeline uses:
//
//	GET /api/3/action/package_list          -> {"success": true, "result": [ids...]}
//	GET /api/3/action/package_show?id=<id>  -> {"success": true, "result": {dataset}}
//	GET /download/<resourceID>              -> raw resource body
//
// Deliberately broken resources behave accordingly: BrokenNotFound
// URLs return 404, BrokenHTMLPage URLs return an HTML error page with
// status 200, and so on, so that a client exercising the pipeline
// observes the same downloadable/readable funnel as the paper.
//
// On top of those data-quality defects, InjectFaults arms transport-
// level fault injection — transient 500s, truncated bodies, latency —
// per endpoint, so the client's retry, backoff and partial-failure
// accounting can be tested against a deterministic flaky portal.
type Server struct {
	portal *Portal
	mux    *http.ServeMux

	mu       sync.Mutex
	faults   Faults
	attempts map[string]int
}

// FaultSpec describes the faults injected into one endpoint class.
// The zero value injects nothing.
type FaultSpec struct {
	// FailFirst makes the first N attempts at each distinct request
	// fail with a 500 before the endpoint starts succeeding — the
	// "fail N times, then recover" shape retry tests need.
	FailFirst int
	// Rate500 is the probability in [0,1) that an attempt fails with
	// a 500. Decisions hash (seed, request key, attempt number), so
	// schedules are reproducible and independent of arrival order.
	Rate500 float64
	// TruncateRate is the probability that a response body is cut off
	// mid-transfer; the client observes an unexpected EOF.
	TruncateRate float64
	// Latency delays every response.
	Latency time.Duration
}

// Faults configures the server's injected failures per endpoint.
type Faults struct {
	// Seed drives every probabilistic decision.
	Seed        int64
	PackageList FaultSpec
	PackageShow FaultSpec
	Download    FaultSpec
}

// NewServer creates a CKAN API server for the portal.
func NewServer(p *Portal) *Server {
	s := &Server{portal: p, mux: http.NewServeMux(), attempts: make(map[string]int)}
	s.mux.HandleFunc("/api/3/action/package_list", s.packageList)
	s.mux.HandleFunc("/api/3/action/package_show", s.packageShow)
	s.mux.HandleFunc("/download/", s.download)
	return s
}

// InjectFaults arms (or, with the zero Faults, disarms) fault
// injection and resets the per-request attempt counters, so
// back-to-back runs against the same server see identical fault
// schedules.
func (s *Server) InjectFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
	s.attempts = make(map[string]int)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiResponse is the CKAN action API envelope.
type apiResponse struct {
	Success bool        `json:"success"`
	Result  interface{} `json:"result,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// packageJSON mirrors the subset of CKAN package metadata the client
// needs.
type packageJSON struct {
	ID        string         `json:"id"`
	Title     string         `json:"title"`
	Notes     string         `json:"notes"`
	Created   string         `json:"metadata_created"`
	Resources []resourceJSON `json:"resources"`
}

type resourceJSON struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Format string `json:"format"`
	URL    string `json:"url"`
}

// mustJSON marshals an API envelope; the payload types cannot fail.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

type faultAction int

const (
	faultNone faultAction = iota
	fault500
	faultTruncate
)

// decide registers one attempt at key and returns its injected fate.
func (s *Server) decide(sp FaultSpec, key string) faultAction {
	if sp == (FaultSpec{}) {
		return faultNone
	}
	s.mu.Lock()
	n := s.attempts[key]
	s.attempts[key] = n + 1
	seed := s.faults.Seed
	s.mu.Unlock()
	if sp.Latency > 0 {
		time.Sleep(sp.Latency)
	}
	if n < sp.FailFirst {
		return fault500
	}
	if sp.Rate500 > 0 && parallel.Hash01(seed, "500:"+key, n) < sp.Rate500 {
		return fault500
	}
	if sp.TruncateRate > 0 && parallel.Hash01(seed, "truncate:"+key, n) < sp.TruncateRate {
		return faultTruncate
	}
	return faultNone
}

// deliver writes a response through the fault injector: the attempt
// may be replaced by a 500, truncated mid-body, or delayed, per the
// endpoint's FaultSpec.
func (s *Server) deliver(w http.ResponseWriter, sp FaultSpec, key string, status int, contentType string, body []byte) {
	switch s.decide(sp, key) {
	case fault500:
		http.Error(w, "injected transient failure", http.StatusInternalServerError)
		return
	case faultTruncate:
		// Declaring the full length and writing half of it makes
		// net/http drop the connection, so the client reads a
		// truncated body (unexpected EOF).
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body[:len(body)/2])
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) spec() Faults {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

func (s *Server) packageList(w http.ResponseWriter, r *http.Request) {
	ids := make([]string, len(s.portal.Datasets))
	for i, d := range s.portal.Datasets {
		ids[i] = d.ID
	}
	body := mustJSON(apiResponse{Success: true, Result: ids})
	s.deliver(w, s.spec().PackageList, "package_list", http.StatusOK, "application/json", body)
}

func (s *Server) packageShow(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	sp := s.spec().PackageShow
	key := "package_show:" + id
	d := s.portal.Dataset(id)
	if d == nil {
		body := mustJSON(apiResponse{Success: false, Error: "Not found"})
		s.deliver(w, sp, key, http.StatusNotFound, "application/json", body)
		return
	}
	pkg := packageJSON{
		ID:      d.ID,
		Title:   d.Title,
		Notes:   d.Description,
		Created: d.Published.Format("2006-01-02T15:04:05"),
	}
	for _, res := range d.Resources {
		pkg.Resources = append(pkg.Resources, resourceJSON{
			ID:     res.ID,
			Name:   res.Name,
			Format: res.Format,
			URL:    res.URL,
		})
	}
	body := mustJSON(apiResponse{Success: true, Result: pkg})
	s.deliver(w, sp, key, http.StatusOK, "application/json", body)
}

func (s *Server) download(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/download/")
	sp := s.spec().Download
	key := "download:" + id
	res := s.portal.Resource(id)
	if res == nil {
		s.deliver(w, sp, key, http.StatusNotFound, "text/plain; charset=utf-8", []byte("not found\n"))
		return
	}
	status, contentType, body := res.Download()
	s.deliver(w, sp, key, status, contentType, body)
}

// Download is what the portal answers at the resource's URL: a 404 or
// the HTML page or binary garbage of a broken resource, else the
// resource's own bytes as CSV.
func (r *Resource) Download() (status int, contentType string, body []byte) {
	switch r.Broken {
	case BrokenNotFound:
		return http.StatusNotFound, "text/plain; charset=utf-8", []byte("not found\n")
	case BrokenHTMLPage:
		page := []byte("<!DOCTYPE html><html><body><h1>Resource moved</h1><p>This dataset is no longer available at this address.</p></body></html>")
		return http.StatusOK, "text/html", page
	case BrokenGarbage:
		garbage := make([]byte, 512)
		for i := range garbage {
			garbage[i] = byte(i*7 + 3)
		}
		return http.StatusOK, "application/octet-stream", garbage
	default:
		return http.StatusOK, "text/csv", r.Body
	}
}
