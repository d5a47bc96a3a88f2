package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestServeEndToEnd drives the built ogdpserve binary through its
// whole lifecycle: load a corpus, answer every endpoint with bodies
// byte-identical to the one-shot ogdpsearch CLI, take a concurrent
// burst over all five query endpoints without a failed request, and
// exit cleanly with in-flight work drained, on SIGINT and on SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "ogdp/cmd/ogdpserve", "ogdp/cmd/ogdpsearch")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	corpus := writeCorpus(t)
	for _, sig := range []os.Signal{os.Interrupt, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			serveLifecycle(t, bin, corpus, sig)
		})
	}
}

// serveLifecycle runs one server from start to drain, stopping it
// with sig.
func serveLifecycle(t *testing.T, bin, corpus string, sig os.Signal) {
	serve := exec.Command(filepath.Join(bin, "ogdpserve"), "-dir", corpus, "-addr", "127.0.0.1:0")
	stderr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill()

	// The server logs its chosen address; scan for it, keep draining
	// stderr afterwards so the process never blocks on the pipe.
	addrRe := regexp.MustCompile(`serving corpus [0-9a-f]+ on http://([0-9.]+:[0-9]+)`)
	sc := bufio.NewScanner(stderr)
	var addr string
	var tail strings.Builder
	var tailMu sync.Mutex
	for sc.Scan() {
		line := sc.Text()
		tail.WriteString(line + "\n")
		if m := addrRe.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no serving line on stderr:\n%s", tail.String())
	}
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		for sc.Scan() {
			tailMu.Lock()
			tail.WriteString(sc.Text() + "\n")
			tailMu.Unlock()
		}
	}()
	base := "http://" + addr

	waitHealthy(t, base)

	// Every query endpoint must reproduce the one-shot CLI's output
	// for the same question, byte for byte (the CLI's trailing
	// "\ncompleted in ..." timing epilogue aside). The default search
	// mode prints the /join body, a blank line, and the /union body.
	searchOut := runCLI(t, filepath.Join(bin, "ogdpsearch"),
		"-dir", corpus, "-query", "landings.csv", "-col", "species", "-k", "5")
	joinWant, unionWant, found := strings.Cut(searchOut, "\nunionable tables")
	if !found {
		t.Fatalf("no union section in ogdpsearch output:\n%s", searchOut)
	}
	for _, tc := range []struct {
		path string
		want string
	}{
		{"/join?table=landings.csv&col=species&k=5", joinWant},
		{"/union?table=landings.csv&k=5", "unionable tables" + unionWant},
		{"/profile?table=species.csv", runCLI(t, filepath.Join(bin, "ogdpsearch"),
			"-dir", corpus, "-query", "species.csv", "-mode", "profile")},
		{"/fd?table=species.csv", runCLI(t, filepath.Join(bin, "ogdpsearch"),
			"-dir", corpus, "-query", "species.csv", "-mode", "fd")},
		{"/search?table=landings.csv&k=5", runCLI(t, filepath.Join(bin, "ogdpsearch"),
			"-dir", corpus, "-query", "landings.csv", "-mode", "rank", "-k", "5")},
	} {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", tc.path, resp.StatusCode, body)
			continue
		}
		if string(body) != tc.want {
			t.Errorf("%s: body differs from CLI output:\n got %q\nwant %q", tc.path, body, tc.want)
		}
	}

	burst(t, base)

	// The signal must drain and exit 0. Drain stderr to EOF before
	// Wait: Wait closes the pipe and would drop the shutdown log lines.
	if err := serve.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stderrDone:
	case <-time.After(15 * time.Second):
		t.Fatalf("ogdpserve stderr still open 15s after %v", sig)
	}
	done := make(chan error, 1)
	go func() { done <- serve.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ogdpserve exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("ogdpserve did not exit within 15s of %v", sig)
	}
	tailMu.Lock()
	logs := tail.String()
	tailMu.Unlock()
	if !strings.Contains(logs, "shut down cleanly") {
		t.Errorf("no clean-shutdown log line:\n%s", logs)
	}
}

// Burst shape: burstWorkers clients issue burstRequests requests each.
const (
	burstWorkers  = 4
	burstRequests = 40
)

// burst pushes a concurrent mixed load at the server. Each client
// cycles through every (endpoint, table) pair that answered a probe
// with 200, varying k so that most requests miss the result cache. A
// 429 counts as rejected, backpressure working as designed; any other
// status or a transport error fails the test.
func burst(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Tables []struct {
			Name string `json:"name"`
		} `json:"tables"`
	}
	err = json.NewDecoder(resp.Body).Decode(&inv)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /tables: %v", err)
	}

	// A table a query cannot answer (no join-eligible column, say) is
	// left out of the burst rather than counted as a server failure.
	var targets []string
	for _, ep := range []string{"/join", "/union", "/profile", "/fd", "/search"} {
		answered := len(targets)
		for _, tb := range inv.Tables {
			path := ep + "?" + url.Values{"table": {tb.Name}}.Encode()
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatalf("probe %s: %v", path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				targets = append(targets, path)
			}
		}
		if len(targets) == answered {
			t.Fatalf("no table answers %s, so the burst would not cover it", ep)
		}
	}

	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := range burstWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range burstRequests {
				path := fmt.Sprintf("%s&k=%d", targets[(w*burstRequests+i)%len(targets)], 1+i%8)
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("burst GET %s: %v", path, err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("burst GET %s: status %d: %s", path, resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("burst: %d requests, %d ok, %d rejected", burstWorkers*burstRequests, ok.Load(), rejected.Load())
	if ok.Load() == 0 {
		t.Error("no burst request succeeded")
	}
}

// runCLI runs a one-shot CLI and returns its stdout with the timing
// epilogue ("\ncompleted in ...") stripped.
func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	s := string(out)
	if i := strings.LastIndex(s, "\ncompleted in "); i >= 0 {
		s = s[:i] // the section's own trailing newline sits before i
	}
	return s
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// writeCorpus lays down a small corpus with joinable, unionable, and
// FD structure.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var species, landings strings.Builder
	species.WriteString("species_id,species,region,climate\n")
	landings.WriteString("code,species,tonnage\n")
	climates := []string{"temperate", "arctic", "tropical"}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&species, "S%02d,name-%02d,region-%d,%s\n", i, i, i%3, climates[i%3])
		fmt.Fprintf(&landings, "C%02d,name-%02d,%d\n", i, i, 10*i)
	}
	files := []struct{ name, content string }{
		{"species.csv", species.String()},
		{"landings.csv", landings.String()},
		{"parts-2019.csv", "city,country,count\na,AA,1\nb,BB,2\nc,AA,3\n"},
		{"parts-2020.csv", "city,country,count\nd,AA,4\ne,BB,5\nf,CC,6\n"},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
