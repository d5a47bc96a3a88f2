package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// mixEntry is one endpoint of the request mix with its weight.
type mixEntry struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

func defaultMix() []mixEntry {
	return []mixEntry{{"join", 4}, {"union", 2}, {"profile", 2}, {"fd", 1}, {"search", 2}}
}

// usesK reports whether an endpoint takes the k parameter.
func usesK(kind string) bool { return kind == "join" || kind == "union" || kind == "search" }

// target is one distinct question: endpoint, table, and k.
type target struct {
	Kind  string
	Table string
	K     int
}

// path is the request URI of the target.
func (t target) path() string {
	v := url.Values{"table": {t.Table}}
	if usesK(t.Kind) {
		v.Set("k", strconv.Itoa(t.K))
	}
	return "/" + t.Kind + "?" + v.Encode()
}

// request is one scheduled request: its target and its inter-arrival
// gap in units of the mean gap (so one schedule serves any rate).
type request struct {
	target
	Gap float64
}

// schedule makes n requests. Which questions are asked, and how often,
// is a property of the workload: each endpoint gets its mix-weight
// share of n, and within an endpoint each (table, k) its share under
// Zipf(s) popularity, P(rank i) ∝ (i+1)^-s with k uniform over ks. The
// shares are rounded by systematic sampling, so every table whose
// share is at least one request is asked for, and the rarest tail gets
// evenly spaced single requests. The ranking is a fixed shuffle by
// rankSeed, so which tables are hot does not change with the seed.
// The seed draws the order of the requests and their exponential
// inter-arrival gaps (Poisson arrivals). Drawing the tables afresh for
// every seed made the server's bytes allocated per request differ by
// up to a quarter between seeds, because the few costly rare tables a
// draw happened to include dominated it.
// Endpoints with no eligible table are left out.
func schedule(seed, rankSeed int64, n int, mix []mixEntry, eligible map[string][]string, ks []int, s float64) []request {
	rank := rand.New(rand.NewSource(rankSeed))
	var kinds []mixEntry
	var kindWeights []float64
	for _, m := range mix {
		if len(eligible[m.Kind]) > 0 {
			kinds = append(kinds, m)
			kindWeights = append(kindWeights, float64(m.Weight))
		}
	}
	var out []request
	for ki, count := range quota(n, kindWeights) {
		kind := kinds[ki].Kind
		tables := append([]string(nil), eligible[kind]...)
		sort.Strings(tables)
		rank.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
		kOptions := []int{0}
		if usesK(kind) {
			kOptions = ks
		}
		var targets []target
		var weights []float64
		for i, t := range tables {
			for _, k := range kOptions {
				targets = append(targets, target{Kind: kind, Table: t, K: k})
				weights = append(weights, math.Pow(float64(i+1), -s))
			}
		}
		for ti, c := range quota(count, weights) {
			for ; c > 0; c-- {
				out = append(out, request{target: targets[ti]})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].Gap = rng.ExpFloat64()
	}
	return out
}

// quota splits n into whole shares proportional to weights by
// systematic sampling: share i is round(n·C(i)) − round(n·C(i−1)),
// where C(i) is the cumulative weight share of the first i+1 entries.
// The shares sum to n, and each is its exact share rounded down or up.
func quota(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	var cum float64
	prev := 0
	for i, w := range weights {
		cum += w
		next := n
		if i < len(weights)-1 {
			next = int(math.Floor(float64(n)*cum/total + 0.5))
		}
		out[i] = next - prev
		prev = next
	}
	return out
}

// result is the outcome of one sent request. Times are offsets from
// the phase start.
type result struct {
	Status   int
	Cache    string
	Corpus   string
	BodyHash uint64
	// Latency runs from when the request was due to its last body byte.
	Latency time.Duration
	// Lag is how late the generator sent it: send time minus the later
	// of its due time and the moment its connection became free.
	Lag time.Duration
	// Wait is send time minus due time, queueing behind busy
	// connections included.
	Wait time.Duration
	Err  error
}

// failed reports whether the request failed.
func (r result) failed() bool { return r.Err != nil || r.Status != http.StatusOK }

// openLoop sends reqs at rate requests per second over conns
// persistent connections: request i is due at the sum of the first
// i+1 gaps divided by rate, and the first free connection takes the
// next due request. Each connection is driven by one goroutine locked
// to its own precise thread (see preciseThread), so the generator's own
// timer adds microseconds, not the scheduler's milliseconds. It also
// reports whether every thread got real-time priority.
func openLoop(ctx context.Context, addr string, reqs []request, rate float64, conns int) ([]result, bool) {
	due := make([]time.Duration, len(reqs))
	raw := make([][]byte, len(reqs))
	var t float64
	for i, r := range reqs {
		t += r.Gap / rate
		due[i] = time.Duration(t * float64(time.Second))
		raw[i] = []byte("GET " + r.path() + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
	}
	results := make([]result, len(reqs))
	// Fewer collections in this process keep its pauses out of the
	// send times.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var next, plain atomic.Int64
	// A short lead lets every worker reach its first sleep before the
	// first request is due.
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
			if !preciseThread() {
				plain.Add(1)
			}
			var c *conn
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			free := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				at := start.Add(due[i])
				sleepUntil(at)
				sent := time.Now()
				from := at
				if free.After(at) {
					from = free
				}
				res := result{Lag: sent.Sub(from), Wait: sent.Sub(at)}
				if c == nil {
					var err error
					if c, err = dial(addr); err != nil {
						res.Err = err
						results[i] = res
						continue
					}
				}
				body, err := c.roundTrip(raw[i], &res)
				res.Latency = time.Since(at)
				if err != nil {
					res.Err = err
					c.Close()
					c = nil
				} else {
					res.BodyHash = fnv64(body)
				}
				results[i] = res
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	return results, plain.Load() == 0
}

// conn is one persistent HTTP/1.1 client connection over a blocking
// socket (see dialBlocking).
type conn struct {
	*os.File
	br   *bufio.Reader
	body bytes.Buffer // reused for every response body
}

func dial(addr string) (*conn, error) {
	f, err := dialBlocking(addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &conn{File: f, br: bufio.NewReaderSize(f, 64<<10)}, nil
}

// roundTrip writes one request and reads its response, filling the
// status and headers of res and returning the body, which stays valid
// until the next call.
func (c *conn) roundTrip(req []byte, res *result) ([]byte, error) {
	if _, err := c.Write(req); err != nil {
		return nil, fmt.Errorf("writing request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	res.Status = resp.StatusCode
	res.Cache = resp.Header.Get("X-Ogdp-Cache")
	res.Corpus = resp.Header.Get("X-Ogdp-Corpus")
	return c.body.Bytes(), nil
}
