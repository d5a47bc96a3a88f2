package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ogdp/internal/diskcorpus"
	"ogdp/internal/gen"
	"ogdp/internal/obs"
	"ogdp/internal/query"
)

// corpusConfig names a generated corpus saved to disk.
type corpusConfig struct {
	Portal string  `json:"portal"`
	Scale  float64 `json:"scale"`
	Seed   int64   `json:"seed"`
}

// serveConfig sizes the serve-mixed workload.
type serveConfig struct {
	Corpus corpusConfig `json:"corpus"`
	Mix    []mixEntry   `json:"mix"`
	Ks     []int        `json:"ks"`
	ZipfS  float64      `json:"zipf_s"`
	// PopularitySeed fixes which tables are hot; the run seed draws
	// the requests.
	PopularitySeed int64 `json:"popularity_seed"`
	// Conns is the generator's connection (and thread) count.
	Conns int `json:"conns"`
	// FixedRPS is the open-loop rate at which hit and miss latency are
	// measured; PhaseShare is the share of the run's seconds spent there
	// (the rest goes to the rate ladder).
	FixedRPS   float64 `json:"fixed_rps"`
	PhaseShare float64 `json:"phase_share"`
	// The ladder's rungs are LadderBase × LadderStep^i for i below
	// LadderRungs; a probed rung sends RungSeconds of requests (at least
	// MinRungRequests) and passes when none fails, p99 latency stays
	// within LimitMs, and the send backlog does not grow.
	LadderBase      float64 `json:"ladder_base"`
	LadderStep      float64 `json:"ladder_step"`
	LadderRungs     int     `json:"ladder_rungs"`
	RungSeconds     float64 `json:"rung_seconds"`
	MinRungRequests int     `json:"min_rung_requests"`
	LimitMs         float64 `json:"limit_ms"`
	// Launches is how many times the server is started to time set-up;
	// the last one serves the load.
	Launches int `json:"launches"`
	// FixedAttempts bounds how often a fixed phase whose generator
	// lagged is repeated.
	FixedAttempts int `json:"fixed_attempts"`
}

// saveCorpus generates the configured corpus and saves it to dir.
func saveCorpus(cc corpusConfig, dir string) (gen.SaveStats, error) {
	prof, ok := gen.ProfileByName(cc.Portal)
	if !ok {
		return gen.SaveStats{}, fmt.Errorf("unknown portal %q", cc.Portal)
	}
	st, err := gen.SaveCorpus(dir, gen.Generate(prof, cc.Scale, cc.Seed))
	if err != nil {
		return st, fmt.Errorf("saving corpus: %w", err)
	}
	return st, nil
}

// queryKind maps an endpoint to its query kind.
func queryKind(endpoint string) string {
	if endpoint == "search" {
		return query.KindRank
	}
	return endpoint
}

// oracle holds, for every eligible target, the hash of the body
// query.Service.Do returns for it: the expected response.
type oracle struct {
	eligible map[string][]string // endpoint -> tables that answer
	want     map[string]uint64   // target path -> body hash
	hash     string              // corpus content hash
}

// newOracle asks the in-process service every (endpoint, table, k)
// question of the mix once, before any server starts: targets that
// return an error (a table with no join-eligible column) are not
// eligible, so no structurally unanswerable query is ever sent.
func newOracle(ctx context.Context, svc *query.Service, sc serveConfig) (*oracle, error) {
	or := &oracle{eligible: map[string][]string{}, want: map[string]uint64{}, hash: svc.HashString()}
	for _, m := range sc.Mix {
		ks := []int{0}
		if usesK(m.Kind) {
			ks = sc.Ks
		}
		for _, ti := range svc.Tables() {
			ok := true
			for _, k := range ks {
				body, err := svc.Do(ctx, query.Request{Kind: queryKind(m.Kind), Table: ti.Name, K: k})
				switch {
				case errors.Is(err, query.ErrBadRequest):
					ok = false
				case err != nil:
					return nil, fmt.Errorf("oracle %s %s: %w", m.Kind, ti.Name, err)
				default:
					or.want[target{m.Kind, ti.Name, k}.path()] = fnv64([]byte(body))
				}
			}
			if ok {
				or.eligible[m.Kind] = append(or.eligible[m.Kind], ti.Name)
			}
		}
	}
	return or, nil
}

// verify counts the failed results: transport errors, non-200
// statuses, bodies that differ from query.Service.Do, a corpus header
// other than the service's hash, or a cache header that is neither hit
// nor miss.
func (or *oracle) verify(reqs []request, res []result) (failed int, first string) {
	for i, r := range res {
		bad := ""
		switch {
		case r.Err != nil:
			bad = r.Err.Error()
		case r.Status != http.StatusOK:
			bad = fmt.Sprintf("status %d", r.Status)
		case r.BodyHash != or.want[reqs[i].path()]:
			bad = "body differs from query.Service.Do"
		case r.Corpus != or.hash:
			bad = fmt.Sprintf("X-Ogdp-Corpus %q, want %s", r.Corpus, or.hash)
		case r.Cache != "hit" && r.Cache != "miss":
			bad = fmt.Sprintf("X-Ogdp-Cache %q", r.Cache)
		}
		if bad != "" {
			failed++
			if first == "" {
				first = reqs[i].path() + ": " + bad
			}
		}
	}
	return failed, first
}

// server is a running ogdpserve child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	corpus string
	logs   chan struct{} // closed once its stderr is drained
	client *http.Client
}

var servingLine = regexp.MustCompile(`serving corpus ([0-9a-f]+) on http://(\S+)`)

// launch starts ogdpserve over dir and returns once /healthz answers,
// with the time that took.
func launch(ctx context.Context, bin, dir string) (*server, time.Duration, error) {
	cmd := exec.Command(filepath.Join(bin, "ogdpserve"), "-dir", dir, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("server stderr: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ogdpserve: %w", err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{}), client: &http.Client{Timeout: 30 * time.Second}}
	found := make(chan []string, 1)
	go func() { //lint:allow(gorolife) shutdown owner: ends at EOF when the process exits; stop and kill wait on s.logs
		defer close(s.logs)
		defer close(found)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				found <- m
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case m, ok := <-found:
		if !ok {
			s.kill()
			return nil, 0, fmt.Errorf("ogdpserve exited before serving")
		}
		s.corpus, s.addr = m[1], m[2]
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("ogdpserve did not start within 60s")
	case <-ctx.Done():
		s.kill()
		return nil, 0, ctx.Err()
	}
	for {
		resp, err := s.client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("ogdpserve /healthz did not answer: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// get fetches a path from the server.
func (s *server) get(path string) (string, error) {
	resp, err := s.client.Get("http://" + s.addr + path)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), nil
}

// metric sums every series of a Prometheus counter on /metrics.
func (s *server) metric(name string) (float64, error) {
	text, err := s.get("/metrics")
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", line, err)
		}
		sum += v
	}
	return sum, nil
}

// totalAlloc reads the server's cumulative allocated bytes from its
// heap profile's MemStats footer.
func (s *server) totalAlloc() (float64, error) {
	text, err := s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no TotalAlloc in heap profile")
}

// stop sends SIGTERM, waits for the process and its log reader, and
// returns the process's peak RSS.
func (s *server) stop() (float64, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, fmt.Errorf("stopping ogdpserve: %w", err)
	}
	<-s.logs // the pipe must be drained before Wait closes it
	// ogdpserve starts answering before it installs its SIGTERM handler,
	// so a stop right after start-up can end it by the signal's default
	// action; that is still the exit asked for.
	if err := s.cmd.Wait(); err != nil && !killedBy(s.cmd.ProcessState, syscall.SIGTERM) {
		return 0, fmt.Errorf("ogdpserve exit: %w", err)
	}
	return childMaxRSSMB(s.cmd.ProcessState), nil
}

// kill ends the process without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited processes are fine
	<-s.logs
	_ = s.cmd.Wait()
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	hit, miss, all, lag []float64 // sorted ms
	failed              int
}

func summarize(res []result) phaseStats {
	var st phaseStats
	for _, r := range res {
		ms := float64(r.Latency) / float64(time.Millisecond)
		if r.failed() {
			st.failed++
			continue
		}
		st.all = append(st.all, ms)
		st.lag = append(st.lag, float64(r.Lag)/float64(time.Millisecond))
		if r.Cache == "hit" {
			st.hit = append(st.hit, ms)
		} else {
			st.miss = append(st.miss, ms)
		}
	}
	for _, s := range [][]float64{st.hit, st.miss, st.all, st.lag} {
		sort.Float64s(s)
	}
	return st
}

// missByKind groups a phase's cache-miss latencies by endpoint, sorted.
func missByKind(reqs []request, res []result) map[string][]float64 {
	out := map[string][]float64{}
	for i, r := range res {
		if r.failed() || r.Cache == "hit" {
			continue
		}
		out[reqs[i].Kind] = append(out[reqs[i].Kind], float64(r.Latency)/float64(time.Millisecond))
	}
	for _, s := range out {
		sort.Float64s(s)
	}
	return out
}

// rungPasses applies the ladder rule to one probed rung: nothing
// failed, p99 latency within the limit, and the send backlog did not
// grow (the last quarter's median wait is no more than a millisecond
// above twice the first quarter's).
func rungPasses(res []result, limitMs float64) bool {
	st := summarize(res)
	if st.failed > 0 || len(st.all) == 0 {
		return false
	}
	if quantile(st.all, 0.99) > limitMs {
		return false
	}
	q := len(res) / 4
	wait := func(rs []result) float64 {
		ws := make([]float64, len(rs))
		for i, r := range rs {
			ws[i] = float64(r.Wait) / float64(time.Millisecond)
		}
		return median(ws)
	}
	return wait(res[len(res)-q:]) <= 2*wait(res[:q])+1
}

// rung is the rate of ladder rung i.
func (sc serveConfig) rung(i int) float64 {
	return sc.LadderBase * math.Pow(sc.LadderStep, float64(i))
}

// rungSize is the number of requests a probe of rung i sends.
func (sc serveConfig) rungSize(i int) int {
	return max(sc.MinRungRequests, int(sc.rung(i)*sc.RungSeconds))
}

// runServe measures a freshly started ogdpserve under the open-loop
// mix: set-up, hit and miss latency at the fixed rate, the highest
// ladder rate that meets the latency limit, and the server's memory.
func runServe(ctx context.Context, cfg config, dir string) (*outcome, error) {
	sc := cfg.Serve
	o := &outcome{}
	corpusDir := filepath.Join(dir, "corpus")
	if _, err := saveCorpus(sc.Corpus, corpusDir); err != nil {
		return nil, err
	}
	src, err := diskcorpus.LoadStudy(corpusDir)
	if err != nil {
		return nil, fmt.Errorf("loading corpus: %w", err)
	}
	or, err := newOracle(ctx, query.New(src, query.Options{Workers: cfg.Workers}), sc)
	if err != nil {
		return nil, err
	}
	o.Corpus = or.hash

	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	// restart replaces the running server (if any) with a fresh one.
	restart := func() (time.Duration, error) {
		if srv != nil {
			s := srv
			srv = nil
			if _, err := s.stop(); err != nil {
				return 0, err
			}
		}
		s, d, err := launch(ctx, cfg.Bin, corpusDir)
		srv = s
		return d, err
	}
	for i := 0; i < sc.Launches; i++ {
		d, err := restart()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	o.check("server corpus hash", srv.corpus == or.hash, fmt.Sprintf("server %s, in-process %s", srv.corpus, or.hash))

	phaseSecs := float64(cfg.Seconds) * sc.PhaseShare
	nFixed := int(sc.FixedRPS * phaseSecs)
	probes := int(math.Ceil(math.Log2(float64(sc.LadderRungs)))) + 1
	reqs := schedule(cfg.Seed, sc.PopularitySeed, nFixed, sc.Mix, or.eligible, sc.Ks, sc.ZipfS)
	ladder := schedule(cfg.Seed, sc.PopularitySeed, probes*sc.rungSize(sc.LadderRungs-1), sc.Mix, or.eligible, sc.Ks, sc.ZipfS)

	// The fixed phase counts only when the generator kept time: its lag
	// p99 stays below the miss p50. When the host stalls the generator,
	// the phase is repeated on a fresh server (empty cache, same
	// requests), up to FixedAttempts times.
	var fixed []result
	var st phaseStats
	var realtime bool
	var allocMB, loadedMB, peakMB float64
	attempts := 0
	for {
		attempts++
		pid := strconv.Itoa(srv.cmd.Process.Pid)
		var err error
		if loadedMB, err = procMB(pid, "VmRSS"); err != nil {
			return nil, err
		}
		resetPeakRSS(pid)
		alloc0, err := srv.totalAlloc()
		if err != nil {
			return nil, err
		}
		fixed, realtime = openLoop(ctx, srv.addr, reqs[:nFixed], sc.FixedRPS, sc.Conns)
		alloc1, err := srv.totalAlloc()
		if err != nil {
			return nil, err
		}
		if peakMB, err = procMB(pid, "VmHWM"); err != nil {
			return nil, err
		}
		allocMB = (alloc1 - alloc0) / float64(nFixed) / (1 << 20)
		st = summarize(fixed)
		if lagValid(st) || attempts == sc.FixedAttempts || ctx.Err() != nil {
			break
		}
		if _, err := restart(); err != nil {
			return nil, err
		}
	}
	failed, first := or.verify(reqs[:nFixed], fixed)
	o.Attempted += nFixed
	o.Failed += failed

	// Binary search for the highest passing rung, each probe sending
	// the next slice of the ladder's schedule. A fixed phase that meets
	// the rule vouches for every rung at or below its rate.
	used := 0
	lo, hi := -1, sc.LadderRungs
	var tried []string
	if rungPasses(fixed, sc.LimitMs) {
		for lo+1 < hi && sc.rung(lo+1) <= sc.FixedRPS {
			lo++
		}
		tried = append(tried, fmt.Sprintf("%.0f:true", sc.FixedRPS))
	}
	for hi-lo > 1 && ctx.Err() == nil {
		mid := (lo + hi) / 2
		part := ladder[used : used+sc.rungSize(mid)]
		res, _ := openLoop(ctx, srv.addr, part, sc.rung(mid), sc.Conns)
		f, fr := or.verify(part, res)
		o.Failed += f
		if first == "" {
			first = fr
		}
		o.Attempted += len(part)
		used += len(part)
		pass := rungPasses(res, sc.LimitMs)
		tried = append(tried, fmt.Sprintf("%.0f:%v", sc.rung(mid), pass))
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rejected, err := srv.metric("ogdp_serve_rejected_total")
	if err != nil {
		return nil, err
	}
	s := srv
	srv = nil
	rss, err := s.stop()
	if err != nil {
		return nil, err
	}

	maxRPS := 0.0
	if lo >= 0 {
		maxRPS = sc.rung(lo)
	}
	hitP50 := quantile(st.hit, 0.5)
	missP50 := quantile(st.miss, 0.5)
	lagPct, lagTail := percentile(st.lag, 99)
	o.check("responses equal query.Service.Do", o.Failed == 0, first)
	if !lagValid(st) {
		// A measurement the host disturbed, not a wrong answer: the
		// record says so, and the outputs are still checked.
		o.Invalid = append(o.Invalid, fmt.Sprintf("generator lag p%g %.4f ms above miss p50 %.4f ms in all %d fixed phases",
			lagPct, lagTail, missP50, attempts))
	}
	o.check("a ladder rung passed", lo >= 0, strings.Join(tried, " "))

	missPct, missTail := percentile(st.miss, 99)
	hitPct, hitTail := percentile(st.hit, 99)
	setup := median(setups)
	o.set("setup_s", setup, unitS)
	o.set("p50_ms", missP50, unitMs)
	o.set("tail_ms", quantile(st.miss, 0.9), unitMs)
	o.set("alloc_mb", allocMB, unitMB)
	o.set("rss_mb", peakMB, unitMB)
	byKind := missByKind(reqs, fixed)
	for _, m := range sc.Mix {
		miss := byKind[m.Kind]
		o.add(named{Name: "serve_miss_p50_" + m.Kind + "_ms", Value: quantile(miss, 0.5), Unit: unitMs, Better: "lower", Samples: len(miss)})
	}
	o.add(named{Name: "serve_miss_p90_ms", Value: quantile(st.miss, 0.9), Unit: unitMs, Better: "lower", Samples: len(st.miss)})
	o.add(named{Name: "serve_loaded_rss_mb", Value: loadedMB, Unit: unitMB, Better: "lower"})
	o.add(named{Name: "serve_phase_peak_rss_mb", Value: peakMB, Unit: unitMB, Better: "lower"})
	o.add(named{Name: "serve_fixed_attempts", Value: float64(attempts), Unit: unitCount, Better: "lower"})
	o.add(named{Name: "setup_s", Value: setup, Unit: unitS, Better: "lower", Samples: len(setups)})
	o.add(named{Name: "serve_hit_p50_ms", Value: hitP50, Unit: unitMs, Better: "lower", Samples: len(st.hit)})
	o.add(named{Name: "serve_hit_p99_ms", Value: hitTail, Unit: unitMs, Better: "lower", Samples: len(st.hit), Pct: hitPct})
	o.add(named{Name: "serve_miss_p50_ms", Value: missP50, Unit: unitMs, Better: "lower", Samples: len(st.miss)})
	o.add(named{Name: "serve_miss_p99_ms", Value: missTail, Unit: unitMs, Better: "lower", Samples: len(st.miss), Pct: missPct})
	o.add(named{Name: "serve_max_rps", Value: maxRPS, Unit: unitPerS, Better: "higher", Samples: len(tried)})
	o.add(named{Name: "serve_rss_mb", Value: rss, Unit: unitMB, Better: "lower"})
	o.add(named{Name: "serve_alloc_mb_per_request", Value: allocMB, Unit: unitMB, Better: "lower", Samples: nFixed})
	o.add(named{Name: "serve.cache_hit_ratio", Value: float64(len(st.hit)) / float64(max(len(st.all), 1)), Unit: unitRatio, Better: "higher"})
	o.add(named{Name: "serve.rejected", Value: rejected, Unit: unitCount, Better: "lower"})
	o.add(named{Name: "loadgen.lag_p50_ms", Value: quantile(st.lag, 0.5), Unit: unitMs, Better: "lower", Samples: len(st.lag)})
	o.add(named{Name: "loadgen.lag_p99_ms", Value: lagTail, Unit: unitMs, Better: "lower", Samples: len(st.lag), Pct: lagPct})
	o.add(named{Name: "loadgen.realtime", Value: b2f(realtime), Unit: unitCount})
	return o, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// lagValid reports whether the generator kept time in a phase: its lag
// p99 (or highest percentile with ten samples beyond) is no more than
// the miss p50, so the generator did not distort the headline latency.
// Against the hit p50 (~0.13 ms) the rule failed most phases on a quiet
// host, whose lag p99 is 0.11–0.17 ms.
func lagValid(st phaseStats) bool {
	_, lag := percentile(st.lag, 99)
	return len(st.miss) > 0 && lag <= quantile(st.miss, 0.5)
}

// lru mirrors the server's result cache: capacity entries, least
// recently used evicted first.
type lru struct {
	cap   int
	stamp map[string]int
	tick  int
}

// touch records a use of key and reports whether it was cached.
func (c *lru) touch(key string) bool {
	c.tick++
	_, hit := c.stamp[key]
	c.stamp[key] = c.tick
	if !hit && len(c.stamp) > c.cap {
		oldest, at := "", c.tick
		for k, t := range c.stamp {
			if t < at {
				oldest, at = k, t
			}
		}
		delete(c.stamp, oldest)
	}
	return hit
}

// replayPairs is how many untimed and timed in-process replays the
// traced run alternates.
const replayPairs = 3

// replay runs the schedule in-process against the service behind an
// LRU the size of the server's cache, returning the wall time of each
// miss by endpoint when timed, and the whole replay's wall time.
func replay(ctx context.Context, svc *query.Service, reqs []request, timed bool) (map[string][]time.Duration, time.Duration, error) {
	cache := &lru{cap: 256, stamp: map[string]int{}}
	per := map[string][]time.Duration{}
	start := time.Now()
	for _, r := range reqs {
		if cache.touch(r.path()) {
			continue
		}
		q := query.Request{Kind: queryKind(r.Kind), Table: r.Table, K: r.K}
		if !timed {
			if _, err := svc.Do(ctx, q); err != nil {
				return nil, 0, fmt.Errorf("replay %s: %w", r.path(), err)
			}
			continue
		}
		t0 := time.Now()
		_, err := svc.Do(ctx, q)
		per[r.Kind] = append(per[r.Kind], time.Since(t0))
		if err != nil {
			return nil, 0, fmt.Errorf("replay %s: %w", r.path(), err)
		}
	}
	return per, time.Since(start), nil
}

// traceServe measures the serve path's layers: loading the corpus and
// building the service (timed in-process), per-kind query time from an
// in-process replay of the schedule behind a server-sized LRU, the
// search layer's candidate counters, and — from a short run against a
// fresh server — the cache hit ratio, 429 count and generator lag.
// The overhead compares the replay with per-call timers against the
// same replay without them.
func traceServe(ctx context.Context, cfg config, dir string, o *outcome) (float64, error) {
	sc := cfg.Serve
	corpusDir := filepath.Join(dir, "corpus")
	if _, err := saveCorpus(sc.Corpus, corpusDir); err != nil {
		return 0, err
	}
	var loads, builds []float64
	var svc *query.Service
	reg := obs.NewRegistry()
	for i := 0; i < sc.Launches; i++ {
		runtime.GC()
		t0 := time.Now()
		src, err := diskcorpus.LoadStudy(corpusDir)
		if err != nil {
			return 0, fmt.Errorf("loading corpus: %w", err)
		}
		t1 := time.Now()
		svc = query.New(src, query.Options{Workers: cfg.Workers, Registry: reg})
		loads = append(loads, float64(t1.Sub(t0))/float64(time.Millisecond))
		builds = append(builds, float64(time.Since(t1))/float64(time.Millisecond))
	}
	o.set("diskcorpus.load_ms", median(loads), unitMs)
	o.set("query.new_ms", median(builds), unitMs)
	or, err := newOracle(ctx, svc, sc)
	if err != nil {
		return 0, err
	}
	n := int(sc.FixedRPS * float64(cfg.Seconds) * sc.PhaseShare)
	reqs := schedule(cfg.Seed, sc.PopularitySeed, n, sc.Mix, or.eligible, sc.Ks, sc.ZipfS)

	// Untimed and timed replays alternate; the timed ones pool their
	// samples, and each reads the search counters around itself.
	per := map[string][]time.Duration{}
	var untimed, timed time.Duration
	var candidates, verified float64
	for pass := 0; pass < replayPairs; pass++ {
		_, d, err := replay(ctx, svc, reqs, false)
		if err != nil {
			return 0, err
		}
		untimed += d
		before := reg.Snapshot()
		p, d, err := replay(ctx, svc, reqs, true)
		if err != nil {
			return 0, err
		}
		after := reg.Snapshot()
		timed += d
		for _, m := range sc.Mix {
			per[m.Kind] = append(per[m.Kind], p[m.Kind]...)
		}
		candidates += counterSum(after, "ogdp_search_rank_candidates_total") - counterSum(before, "ogdp_search_rank_candidates_total")
		verified += counterSum(after, "ogdp_search_rank_verified_total") - counterSum(before, "ogdp_search_rank_verified_total")
		o.Attempted += 2 * len(reqs)
	}
	for _, m := range sc.Mix {
		ms := sortedMs(per[m.Kind])
		p50 := quantile(ms, 0.5)
		if len(ms) == 0 {
			p50 = 0
		}
		pct, p99 := percentile(ms, 99)
		name := "query." + m.Kind
		o.set(name+"_p50_ms", p50, unitMs)
		o.set(name+"_p99_ms", p99, unitMs)
		o.add(named{Name: name + "_p99_ms", Value: p99, Unit: unitMs, Samples: len(ms), Pct: pct})
	}
	o.set("search.candidates", candidates/replayPairs, unitCount)
	o.set("search.verified", verified/replayPairs, unitCount)

	srv, _, err := launch(ctx, cfg.Bin, corpusDir)
	if err != nil {
		return 0, err
	}
	res, _ := openLoop(ctx, srv.addr, reqs, sc.FixedRPS, sc.Conns)
	hits, herr := srv.metric("ogdp_serve_cache_hits_total")
	misses, merr := srv.metric("ogdp_serve_cache_misses_total")
	rejected, rerr := srv.metric("ogdp_serve_rejected_total")
	_, serr := srv.stop()
	if err := errors.Join(herr, merr, rerr, serr); err != nil {
		return 0, err
	}
	failed, first := or.verify(reqs, res)
	o.Attempted += len(reqs)
	o.Failed += failed
	o.check("traced responses equal query.Service.Do", failed == 0, first)
	st := summarize(res)
	o.set("serve.cache_hit_ratio", hits/math.Max(hits+misses, 1), unitRatio)
	o.set("serve.rejected", rejected, unitCount)
	o.set("loadgen.lag_p50_ms", quantile(st.lag, 0.5), unitMs)
	_, lag99 := percentile(st.lag, 99)
	o.set("loadgen.lag_p99_ms", lag99, unitMs)
	return 100 * (timed.Seconds() - untimed.Seconds()) / untimed.Seconds(), nil
}

// dirBytes totals the regular files under dir, and those ending in
// suffix.
func dirBytes(dir, suffix string) (total, matching int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("listing %s: %w", dir, err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, fmt.Errorf("stat %s: %w", e.Name(), err)
		}
		if !info.Mode().IsRegular() {
			continue
		}
		total += info.Size()
		if strings.HasSuffix(e.Name(), suffix) {
			matching += info.Size()
		}
	}
	return total, matching, nil
}
