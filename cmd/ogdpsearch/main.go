// Command ogdpsearch runs one-shot queries over a saved corpus
// directory through the same loader and the same execution-and-rendering
// layer (internal/query) as the long-lived ogdpserve service, so its
// output is byte-identical to the corresponding server response bodies.
//
// The default mode is discovery search: given a query table (and
// optionally a column), it prints the top-k joinable columns by exact
// value overlap (the JOSIE-style operation behind Auctus and Toronto
// Open Data Search), then the unionable tables, ranked — the /join
// body, a blank line, and the /union body. -mode rank prints the
// table-level ranked integration hypotheses (the /search endpoint's
// semantics: value, schema, and metadata evidence combined into one
// weighted score); -mode profile the per-column profile; -mode fd the
// minimal functional dependencies.
//
// Usage:
//
//	ogdpgen -portal CA -scale 0.1 -out /tmp/corpus
//	ogdpsearch -dir /tmp/corpus -query fish-landings-part1-4.csv -col species -k 5
//	ogdpsearch -dir /tmp/corpus -query fish-landings-part1-4.csv -mode rank
//	ogdpsearch -dir /tmp/corpus -query fish-landings-part1-4.csv -mode fd
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ogdp/cmd/internal/cli"
	"ogdp/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogdpsearch: ")

	dir := flag.String("dir", "", "directory of CSV files (required)")
	qname := flag.String("query", "", "query table file name within -dir (required)")
	col := flag.String("col", "", "query column name (default: first join-eligible column)")
	k := flag.Int("k", 5, "top-k results")
	mode := flag.String("mode", "search", "what to run: search, rank, profile, or fd")
	lhs := flag.Int("lhs", 0, "-mode fd: max left-hand-side size (0 = the paper's bound)")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs, 1 = sequential; results are identical)")
	ob := cli.StandardObs()
	flag.Parse()
	if err := ob.Start("ogdpsearch"); err != nil {
		log.Fatal(err)
	}
	if *dir == "" || *qname == "" {
		log.Fatal("-dir and -query are required")
	}
	var reqs []query.Request
	switch *mode {
	case "search":
		reqs = []query.Request{
			{Kind: query.KindJoin, Table: *qname, Col: *col, K: *k},
			{Kind: query.KindUnion, Table: *qname, K: *k},
		}
	case "rank", "profile", "fd":
		reqs = []query.Request{{Kind: *mode, Table: *qname, K: *k, MaxLHS: *lhs}}
	default:
		log.Fatalf("unknown -mode %q (want search, rank, profile, or fd)", *mode)
	}

	sw := cli.Start()
	loadSpan := ob.Trace().Child("load")
	src, err := cli.LoadCorpus(*dir, log.Default())
	if err != nil {
		log.Fatal(err)
	}
	svc := query.New(src, query.Options{Workers: *workers})
	loadSpan.AddItems(svc.NumTables())
	loadSpan.End()

	for i, req := range reqs {
		span := ob.Trace().Child(req.Kind)
		out, err := svc.Do(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		span.End()
		if i > 0 {
			fmt.Print("\n")
		}
		fmt.Print(out)
	}
	sw.PrintCompleted(os.Stdout)
	if err := ob.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
