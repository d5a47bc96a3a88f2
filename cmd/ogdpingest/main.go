// Command ogdpingest incrementally updates a saved corpus from a new
// snapshot of its tables. It detects the delta by content hash against
// provenance.json (no parsing of unchanged tables), commits it to the
// corpus directory — CSVs, colstore files, and manifests patched with
// SaveCorpus's crash-safety — and can verify that a live service
// patched in place lands on exactly the state a from-scratch rebuild
// of the updated corpus produces.
//
// Usage:
//
//	ogdpingest -corpus ./corpus-ca -snapshot ./snapshot        # detect + apply
//	ogdpingest -corpus ./corpus-ca -snapshot ./snapshot -dry-run
//	ogdpingest -corpus ./corpus-ca -snapshot ./snapshot -verify
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ogdp/cmd/internal/cli"
	"ogdp/internal/ingest"
	"ogdp/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogdpingest: ")

	corpusDir := flag.String("corpus", "", "saved corpus directory to update (required)")
	snapshot := flag.String("snapshot", "", "directory holding the new table snapshot (required)")
	dryRun := flag.Bool("dry-run", false, "detect and print the delta without applying it")
	verify := flag.Bool("verify", false, "after applying, check that an in-place service patch matches a from-scratch rebuild")
	workers := flag.Int("workers", 0, "worker pool size for profiling (0 = all CPUs)")
	flag.Parse()
	if *corpusDir == "" || *snapshot == "" {
		log.Fatal("-corpus and -snapshot directories are required")
	}

	sw := cli.Start()
	plan, err := ingest.Detect(*corpusDir, *snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delta for %s: %s\n", plan.Portal, plan.Summary())
	for _, ch := range plan.Added {
		fmt.Printf("  add    %s (%d rows)\n", ch.Name, ch.Table.NumRows())
	}
	for _, ch := range plan.Updated {
		fmt.Printf("  update %s (%d rows)\n", ch.Name, ch.Table.NumRows())
	}
	for _, name := range plan.Deleted {
		fmt.Printf("  delete %s\n", name)
	}
	if *dryRun {
		sw.PrintCompleted(os.Stdout)
		return
	}
	if plan.Empty() {
		fmt.Println("corpus is current; nothing to apply")
		sw.PrintCompleted(os.Stdout)
		return
	}

	// For -verify the pre-patch service must be built before the
	// directory changes underneath it.
	var patched *query.Service
	if *verify {
		src, err := cli.LoadCorpus(*corpusDir, log.Default())
		if err != nil {
			log.Fatal(err)
		}
		patched = query.New(src, query.Options{Workers: *workers})
		if err := patched.ApplyDelta(ingest.QueryDelta(plan)); err != nil {
			log.Fatal(err)
		}
	}
	if err := ingest.Apply(*corpusDir, plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied: re-profiled %d tables, removed %d\n",
		len(plan.Added)+len(plan.Updated), len(plan.Deleted))

	if *verify {
		src, err := cli.LoadCorpus(*corpusDir, log.Default())
		if err != nil {
			log.Fatal(err)
		}
		rebuilt := query.New(src, query.Options{Workers: *workers})
		if patched.Hash() != rebuilt.Hash() {
			log.Fatalf("verify: patched service hash %s != rebuilt %s", patched.HashString(), rebuilt.HashString())
		}
		if patched.NumIndexed() != rebuilt.NumIndexed() {
			log.Fatalf("verify: patched service indexes %d columns, rebuild indexes %d",
				patched.NumIndexed(), rebuilt.NumIndexed())
		}
		if patched.NumTables() != rebuilt.NumTables() {
			log.Fatalf("verify: patched service has %d tables, rebuild has %d",
				patched.NumTables(), rebuilt.NumTables())
		}
		fmt.Printf("verify: in-place patch matches rebuild (hash %s, %d tables, %d indexed columns)\n",
			rebuilt.HashString(), rebuilt.NumTables(), rebuilt.NumIndexed())
	}
	sw.PrintCompleted(os.Stdout)
}
