// Command ogdpserve is the long-lived query service over a saved
// corpus: it loads a corpus directory once — building the inverted
// join index, the unionability grouping, and every column profile up
// front — and then answers join/union/profile/fd queries over HTTP
// until told to stop.
//
// Usage:
//
//	ogdpgen -out ./corpus-sg -scale 0.1
//	ogdpserve -dir ./corpus-sg -addr 127.0.0.1:8080
//
// Endpoints (all GET):
//
//	/join?table=T&col=C&k=N     top-k joinable columns (JOSIE semantics)
//	/union?table=T&k=N          unionable tables, ranked
//	/search?table=T&k=N         ranked integration hypotheses (exact postings scan)
//	/profile?table=T            per-column profile
//	/fd?table=T&lhs=N           minimal functional dependencies
//	/tables                     corpus inventory (JSON)
//	/healthz                    liveness
//	/metrics                    Prometheus snapshot
//	/debug/pprof/               runtime profiles
//
// Response bodies are byte-identical to the one-shot CLI output for
// the same question (ogdpsearch, and its -mode profile/fd) — both
// run through internal/query. Results are cached in an LRU keyed on
// (corpus content hash, normalized query); X-Ogdp-Cache reports
// hit/miss. When every execution slot and wait-queue place is taken
// the server answers 429 with Retry-After rather than queueing
// without bound. SIGINT/SIGTERM drain in-flight requests (bounded by
// -drain) before the process exits.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ogdp/cmd/internal/cli"
	"ogdp/internal/query"
	"ogdp/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogdpserve: ")

	dir := flag.String("dir", "", "corpus directory to serve (required)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a free port)")
	workers := flag.Int("request-workers", 0, "parallel workers per request (0 = all CPUs; results are identical)")
	concurrency := flag.Int("concurrency", serve.DefaultMaxConcurrent, "queries executing at once")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "queries waiting for a slot before arrivals get 429")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-query execution deadline (queue wait included)")
	cache := flag.Int("cache", serve.DefaultCacheEntries, "result-cache capacity in entries (negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight queries")
	ob := cli.StandardObs()
	flag.Parse()
	if *dir == "" {
		log.Fatal("missing -dir: path to a saved corpus directory (e.g. written by ogdpgen -out)")
	}
	if err := ob.Start("ogdpserve"); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	src, err := cli.LoadCorpus(*dir, log.Default())
	if err != nil {
		log.Fatal(err)
	}
	svc := query.New(src, query.Options{Workers: *workers, Registry: ob.Registry()})
	log.Printf("loaded %d tables, %d join-indexed columns from %s in %s",
		svc.NumTables(), svc.NumIndexed(), *dir, time.Since(start).Round(time.Millisecond))
	if sk := svc.IndexSkips(); sk.MinUnique+sk.Empty > 0 {
		log.Printf("search index skipped %d columns below the distinct-value bar, %d with no values",
			sk.MinUnique, sk.Empty)
	}

	srv := serve.New(svc, serve.Options{
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		CacheEntries:  *cache,
		Registry:      ob.Registry(),
	})
	hs, err := cli.StartHTTP(*addr, srv)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving corpus %s on http://%s", svc.HashString(), hs.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, draining in-flight queries (up to %s)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
		log.Print("shut down cleanly")
	case err := <-hs.ServeErr():
		// The listener died underneath us (not a shutdown we asked
		// for): nothing to drain.
		log.Fatalf("serve: %v", err)
	}
	if err := ob.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
