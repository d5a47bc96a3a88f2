// Command ogdpinspect runs the paper's analyses over a directory of
// CSV files on disk (for example one produced by ogdpgen, or any
// folder of downloaded open-data CSVs): parsing funnel, profile
// summary, key/FD statistics, joinability, and unionability.
//
// Usage:
//
//	ogdpgen -portal CA -scale 0.1 -out /tmp/corpus
//	ogdpinspect -dir /tmp/corpus
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"

	"ogdp/cmd/internal/cli"
	"ogdp/internal/diskcorpus"
	"ogdp/internal/fd"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/normalize"
	"ogdp/internal/rank"
	"ogdp/internal/stats"
	"ogdp/internal/table"
	"ogdp/internal/union"
	"ogdp/internal/values"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ogdpinspect: ")

	dir := flag.String("dir", "", "directory of CSV files (required)")
	maxFD := flag.Int("max-fd-tables", 200, "cap on tables entering the FD analysis")
	topJoins := flag.Int("top-joins", 5, "ranked join suggestions to print")
	ob := cli.StandardObs()
	flag.Parse()
	if err := ob.Start("ogdpinspect"); err != nil {
		log.Fatal(err)
	}
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	sw := cli.Start()
	loadSpan := ob.Trace().Child("load")
	c, err := diskcorpus.Load(*dir)
	if err != nil {
		log.Fatal(err)
	}
	tables := c.Tables
	loadSpan.AddTasks(len(tables) + c.Skipped)
	loadSpan.AddItems(len(tables))
	loadSpan.End()
	if len(tables) == 0 {
		log.Fatalf("no readable CSV tables in %s", *dir)
	}

	fmt.Printf("readable tables: %d (skipped %d files, %d too wide)\n\n",
		len(tables), c.Skipped, c.SkippedWide)
	for _, phase := range []struct {
		name string
		run  func()
	}{
		{"profile", func() { printProfile(tables) }},
		{"keys+fd", func() { printKeysAndFDs(tables, *maxFD) }},
		{"join", func() { printJoins(tables, *topJoins) }},
		{"union", func() { printUnions(tables) }},
	} {
		span := ob.Trace().Child(phase.name)
		span.AddTasks(len(tables))
		phase.run()
		span.End()
	}
	sw.PrintCompleted(os.Stdout)
	if err := ob.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func printProfile(tables []*table.Table) {
	var rows, cols []float64
	var nullCols, totalCols, allNull int
	for _, t := range tables {
		rows = append(rows, float64(t.NumRows()))
		cols = append(cols, float64(t.NumCols()))
		for c := range t.Cols {
			totalCols++
			r := t.Profile(c).NullRatio()
			if r > 0 {
				nullCols++
			}
			if stats.ApproxEq(r, 1) {
				allNull++
			}
		}
	}
	fmt.Println("profile:")
	fmt.Printf("  rows: median %.0f, max %.0f; columns: median %.0f, max %.0f\n",
		stats.Median(rows), stats.Summarize(rows).Max, stats.Median(cols), stats.Summarize(cols).Max)
	fmt.Printf("  columns with nulls: %.1f%%; entirely null: %.1f%%\n",
		100*float64(nullCols)/float64(totalCols), 100*float64(allNull)/float64(totalCols))

	counts := map[values.ColumnType]int{}
	for _, t := range tables {
		for c := range t.Cols {
			counts[t.Profile(c).Type]++
		}
	}
	var types []values.ColumnType
	for ct := range counts {
		types = append(types, ct)
	}
	sort.Slice(types, func(i, j int) bool { return counts[types[i]] > counts[types[j]] })
	fmt.Printf("  column types:")
	for _, ct := range types {
		fmt.Printf(" %s:%d", ct, counts[ct])
	}
	fmt.Println()
	fmt.Println()
}

func printKeysAndFDs(tables []*table.Table, maxFD int) {
	noKey := 0
	for _, t := range tables {
		if !keys.HasKeyColumn(t) {
			noKey++
		}
	}
	fmt.Printf("keys: %d of %d tables lack a single-column key (%.1f%%)\n",
		noKey, len(tables), 100*float64(noKey)/float64(len(tables)))

	var eligible []*table.Table
	for _, t := range tables {
		if t.NumRows() >= 10 && t.NumRows() <= 10000 && t.NumCols() >= 5 && t.NumCols() <= 20 {
			eligible = append(eligible, t)
			if len(eligible) == maxFD {
				break
			}
		}
	}
	withFD := 0
	var decomposed []float64
	rng := rand.New(rand.NewSource(1))
	for _, t := range eligible {
		res := normalize.Decompose(t, fd.MaxLHS, rng)
		if len(res.FDs) == 0 {
			continue
		}
		withFD++
		decomposed = append(decomposed, float64(len(res.Tables)))
	}
	if len(eligible) > 0 {
		fmt.Printf("FDs: %d of %d analyzed tables have a non-trivial FD (%.1f%%); avg BCNF sub-tables %.2f\n\n",
			withFD, len(eligible), 100*float64(withFD)/float64(len(eligible)), stats.Mean(decomposed))
	} else {
		fmt.Println("FDs: no tables in the 10..10000 rows × 5..20 columns analysis window")
	}
}

func printJoins(tables []*table.Table, top int) {
	ja := join.Find(tables, join.Options{})
	joinable := map[int]bool{}
	for _, p := range ja.Pairs {
		joinable[p.T1] = true
		joinable[p.T2] = true
	}
	fmt.Printf("joinability (Jaccard >= 0.9, >= 10 uniques): %d pairs; %d of %d tables joinable (%.1f%%)\n",
		len(ja.Pairs), len(joinable), len(tables), 100*float64(len(joinable))/float64(len(tables)))
	ranked := rank.RankJoins(tables, ja.Pairs, rank.JoinWeights{})
	for i, sp := range ranked {
		if i == top {
			break
		}
		p := sp.Pair
		fmt.Printf("  %.2f  %s.%s ⨝ %s.%s (J=%.2f, expansion %.2f)\n",
			sp.Score, tables[p.T1].Name, tables[p.T1].Cols[p.C1],
			tables[p.T2].Name, tables[p.T2].Cols[p.C2], p.Jaccard, p.Expansion)
	}
	fmt.Println()
}

func printUnions(tables []*table.Table) {
	ua := union.Find(tables)
	fmt.Printf("unionability: %d of %d tables unionable (%.1f%%) across %d shared schemas\n",
		ua.UnionableTables(), len(tables), 100*float64(ua.UnionableTables())/float64(len(tables)), len(ua.Groups))
	for i, g := range ua.Groups {
		if i == 3 {
			break
		}
		fmt.Printf("  group of %d: %s ...\n", len(g.Tables), tables[g.Tables[0]].Name)
	}
}
