package ogdp_test

import (
	"fmt"
	"net/http/httptest"
	"strings"

	"ogdp"
)

// ExampleReadCSV demonstrates the paper's parsing pipeline: header
// inference skips preamble rows and trailing empty columns are
// removed.
func ExampleReadCSV() {
	csv := "Quarterly Report,,\n,,\nid,city,province\n1,Waterloo,ON\n2,Montreal,QC\n"
	t, err := ogdp.ReadCSV("cities.csv", strings.NewReader(csv))
	if err != nil {
		panic(err)
	}
	fmt.Println(t)
	fmt.Println(t.Cols)
	// Output:
	// cities.csv (3 cols × 2 rows)
	// [id city province]
}

// ExampleDiscoverFDs mines the classic City → Province dependency.
func ExampleDiscoverFDs() {
	csv := "id,city,province\n1,Waterloo,ON\n2,Toronto,ON\n3,Montreal,QC\n4,Waterloo,ON\n"
	t, _ := ogdp.ReadCSV("cities.csv", strings.NewReader(csv))
	for _, f := range ogdp.DiscoverFDs(t) {
		fmt.Println(f.Format(t))
	}
	// Output:
	// city -> province
}

// ExampleDecomposeBCNF splits a denormalized table into BCNF
// sub-tables.
func ExampleDecomposeBCNF() {
	var b strings.Builder
	b.WriteString("grant_id,city,province\n")
	cities := []string{"Waterloo,ON", "Toronto,ON", "Montreal,QC"}
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "%d,%s\n", i+1, cities[i%3])
	}
	t, _ := ogdp.ReadCSV("grants.csv", strings.NewReader(b.String()))
	res := ogdp.DecomposeBCNF(t, 1)
	fmt.Println(len(res.Parts) > 1)
	// Output:
	// true
}

// ExampleFindJoinable finds the high-overlap pair between two tables
// sharing an id domain.
func ExampleFindJoinable() {
	mk := func(name string) *ogdp.Table {
		var b strings.Builder
		b.WriteString("id,payload\n")
		for i := 1; i <= 20; i++ {
			fmt.Fprintf(&b, "%d,%s\n", i, name)
		}
		t, _ := ogdp.ReadCSV(name, strings.NewReader(b.String()))
		return t
	}
	tables := []*ogdp.Table{mk("a.csv"), mk("b.csv")}
	an := ogdp.FindJoinable(tables, ogdp.JoinOptions{})
	p := an.Pairs[0]
	fmt.Printf("%s.%s ⨝ %s.%s J=%.1f expansion=%.1f\n",
		tables[p.T1].Name, tables[p.T1].Cols[p.C1],
		tables[p.T2].Name, tables[p.T2].Cols[p.C2], p.Jaccard, p.Expansion)
	// Output:
	// a.csv.id ⨝ b.csv.id J=1.0 expansion=1.0
}

// ExampleFindUnionable groups periodically published tables by exact
// schema identity.
func ExampleFindUnionable() {
	mk := func(name, year string) *ogdp.Table {
		csv := "year,value\n" + year + ",1.5\n" + year + ",2.5\n"
		t, _ := ogdp.ReadCSV(name, strings.NewReader(csv))
		return t
	}
	tables := []*ogdp.Table{mk("s-2020.csv", "2020"), mk("s-2021.csv", "2021"), mk("s-2022.csv", "2022")}
	a := ogdp.FindUnionable(tables)
	fmt.Println(len(a.Groups), a.UnionableTables())
	// Output:
	// 1 3
}

// ExampleFaults crawls a deliberately flaky portal: 30% of metadata
// and download requests answer 500, the client retries them with
// deterministic seeded backoff, and a metrics registry records the
// funnel. Every printed value is identical for any Workers setting.
func ExampleFaults() {
	prof, _ := ogdp.Portal("SG")
	corpus := ogdp.GenerateCorpus(prof, 0.05, 1)
	server := ogdp.NewCKANServer(ogdp.BuildCKANPortal(corpus, 1))
	server.InjectFaults(ogdp.Faults{
		Seed:        1,
		PackageShow: ogdp.FaultSpec{Rate500: 0.3},
		Download:    ogdp.FaultSpec{Rate500: 0.3},
	})
	ts := httptest.NewServer(server)
	defer ts.Close()

	client := ogdp.NewFetchClient(ts.URL)
	client.Workers = 4
	client.Seed = 1
	client.Backoff = -1 // retry immediately: no reason to sleep here
	reg := ogdp.NewMetricsRegistry()
	client.Metrics = reg

	tables, stats, err := client.FetchAll()
	if err != nil {
		panic(err)
	}
	fmt.Println("readable tables:", len(tables))
	fmt.Println("retries:", stats.Retries, "transient failures:", stats.TransientFailures)
	snap := reg.Snapshot()
	downloads, _ := snap.Value("ogdp_fetch_requests_total", "stage", "download")
	fmt.Println("download request attempts:", downloads)
	// Output:
	// readable tables: 10
	// retries: 7 transient failures: 7
	// download request attempts: 15
}

// ExampleExtractDictionary parses an unstructured metadata document.
func ExampleExtractDictionary() {
	doc := "# Fish landings\n\n- species: The species recorded\n- weight: Landed weight in tonnes\n"
	d := ogdp.ExtractDictionary(doc)
	desc, _ := d.Lookup("species")
	fmt.Println(d.Format, len(d.Entries), desc)
	// Output:
	// bullets 2 The species recorded
}
