// Command ogdpreport runs the paper's entire study end to end — all
// four portals, every analysis — and prints every table and figure of
// the evaluation with the paper's reported values alongside.
//
// Usage:
//
//	ogdpreport -scale 0.5 -seed 1        # heavier, closer to calibrated sizes
//	ogdpreport -scale 0.1 -fast          # quick pass
//	ogdpreport -dir ./corpus-ca          # study an on-disk corpus
//
// With -dir the study runs over a saved corpus instead of generating
// one: a directory written by ogdpgen (with its provenance.json)
// reproduces the full study including ground-truth labeling, while
// any other directory of CSVs gets the structural analyses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ogdp/cmd/internal/cli"
	"ogdp/internal/core"
	"ogdp/internal/gen"
	"ogdp/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogdpreport: ")

	scale := flag.Float64("scale", 0.25, "corpus scale (1.0 = full calibrated size)")
	seed := flag.Int64("seed", 1, "generation seed")
	fast := flag.Bool("fast", false, "skip the HTTP funnel and cap FD analysis")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs, 1 = sequential; results are identical)")
	dir := flag.String("dir", "", "run the study over an on-disk corpus instead of generating one")
	ob := cli.StandardObs()
	flag.Parse()
	if err := ob.Start("ogdpreport"); err != nil {
		log.Fatal(err)
	}

	opts := core.Options{
		Scale:       *scale,
		Seed:        *seed,
		Compress:    true,
		FetchFunnel: true,
		Sensitivity: true,
		Extensions:  true,
		Workers:     *workers,
		Metrics:     ob.Registry(),
		Trace:       ob.Trace(),
		Clock:       ob.Clock(),
	}
	if *fast {
		opts.FetchFunnel = false
		opts.MaxFDTables = 100
		opts.Sensitivity = false
		opts.Extensions = false
	}

	sw := cli.Start()
	var res *core.StudyResult
	if *dir != "" {
		src, err := cli.LoadCorpus(*dir, log.Default())
		if err != nil {
			log.Fatal(err)
		}
		res = &core.StudyResult{Options: opts, Portals: []core.PortalResult{core.RunPortal(src, opts)}}
	} else {
		res = core.Run(gen.Profiles(), opts)
	}
	report.All(os.Stdout, res)
	report.Summary(os.Stdout, res)
	fmt.Printf("\nfull study completed in %s (scale %.2f, seed %d)\n",
		sw, *scale, *seed)
	if err := ob.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
