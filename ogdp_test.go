package ogdp

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadCSVAndProfile(t *testing.T) {
	in := "id,city,province\n1,Waterloo,ON\n2,Toronto,ON\n3,Montreal,QC\n"
	tb, err := ReadCSV("cities.csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("shape = %d×%d", tb.NumCols(), tb.NumRows())
	}
	ks := KeyColumns(tb)
	if len(ks) == 0 || ks[0] != 0 {
		t.Errorf("KeyColumns = %v", ks)
	}
	if MinCandidateKeySize(tb) != 1 {
		t.Errorf("MinCandidateKeySize = %d", MinCandidateKeySize(tb))
	}
}

func TestFDAndBCNFFacade(t *testing.T) {
	in := "id,city,province\n1,Waterloo,ON\n2,Toronto,ON\n3,Montreal,QC\n4,Waterloo,ON\n"
	tb, err := ReadCSV("cities.csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !HasNontrivialFD(tb) {
		t.Fatal("city -> province FD not detected")
	}
	fds := DiscoverFDs(tb)
	if len(fds) == 0 {
		t.Fatal("no FDs discovered")
	}
	res := DecomposeBCNF(tb, 1)
	if res.InBCNF() || len(res.Parts) < 2 {
		t.Errorf("decomposition = %d tables", len(res.Parts))
	}
}

func TestJoinUnionFacade(t *testing.T) {
	mk := func(name string) *Table {
		var b strings.Builder
		b.WriteString("id,value\n")
		for i := 1; i <= 30; i++ {
			b.WriteString(strings.Repeat(" ", 0))
			b.WriteString(strings.TrimSpace(strings.Join([]string{itoa(i), "1.5"}, ",")))
			b.WriteString("\n")
		}
		tb, err := ReadCSV(name, strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	t1, t2 := mk("a.csv"), mk("b.csv")
	ja := FindJoinable([]*Table{t1, t2}, JoinOptions{})
	if len(ja.Pairs) != 1 {
		t.Errorf("joinable pairs = %d", len(ja.Pairs))
	}
	ua := FindUnionable([]*Table{t1, t2})
	if ua.UnionableTables() != 2 {
		t.Errorf("unionable tables = %d", ua.UnionableTables())
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestGenerateCorpusFacade(t *testing.T) {
	p, ok := Portal("SG")
	if !ok {
		t.Fatal("SG profile missing")
	}
	c := GenerateCorpus(p, 0.05, 9)
	if len(c.Metas) == 0 {
		t.Fatal("empty corpus")
	}
	if len(Portals()) != 4 {
		t.Error("Portals() should return four profiles")
	}
	if _, ok := Portal("XX"); ok {
		t.Error("unknown portal should not resolve")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	in := "a,b\n1,x\n2,y\n"
	tb, err := ReadCSV("t.csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	if buf.String() != in {
		t.Errorf("round trip = %q", buf.String())
	}
}

// TestReportBytesIdenticalAcrossWorkers renders the full paper report
// from a sequential and a heavily oversubscribed study run; the bytes
// must match exactly. This drives the whole pipeline through the
// public facade — including the per-column precompute fan-out, the
// fused keys+FD pass, and the lock-free table caches — so any
// scheduling dependence anywhere in the study surfaces as a diff here.
func TestReportBytesIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("study run")
	}
	render := func(workers int) string {
		res := RunStudy(StudyOptions{
			Scale: 0.04, Seed: 3, Workers: workers,
			MaxFDTables: 10, SamplePerCell: 2, UnionSamples: 4,
		})
		var buf bytes.Buffer
		WriteReport(&buf, res)
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("report bytes differ between Workers=1 and Workers=8 at offset %d:\nseq: …%q\npar: …%q",
			i, seq[lo:min(i+60, len(seq))], par[lo:min(i+60, len(par))])
	}
}

func TestRunStudyAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("study run")
	}
	res := RunStudy(StudyOptions{Scale: 0.05, Seed: 2, MaxFDTables: 10, SamplePerCell: 2, UnionSamples: 4})
	if len(res.Portals) != 4 {
		t.Fatalf("portals = %d", len(res.Portals))
	}
	var buf bytes.Buffer
	WriteReport(&buf, res)
	if !strings.Contains(buf.String(), "Table 11") {
		t.Error("report incomplete")
	}
}
