package csvio

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ogdp/internal/table"
)

// TestRoundTripProperty: any table whose header row parses cleanly and
// whose trailing columns are non-empty survives Write → Read exactly.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []rune("abz019 ,\"\n'é-")
	randCell := func() string {
		n := rng.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for trial := 0; trial < 200; trial++ {
		nCols := 1 + rng.Intn(5)
		nRows := 1 + rng.Intn(20)
		cols := make([]string, nCols)
		for c := range cols {
			cols[c] = "col" + string(rune('a'+c))
		}
		rows := make([][]string, nRows)
		for r := range rows {
			row := make([]string, nCols)
			for c := range row {
				row[c] = randCell()
			}
			// Keep the last column non-null so trailing-column trimming
			// does not kick in, and avoid CR which encoding/csv
			// normalizes.
			row[nCols-1] = "keep"
			for c := range row {
				row[c] = strings.ReplaceAll(row[c], "\r", "")
			}
			rows[r] = row
		}
		orig := table.FromRows("t.csv", cols, rows)
		back, err := ReadBytes("t.csv", Bytes(orig))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.NumRows() != orig.NumRows() || back.NumCols() != orig.NumCols() {
			t.Fatalf("trial %d: shape %dx%d -> %dx%d", trial,
				orig.NumCols(), orig.NumRows(), back.NumCols(), back.NumRows())
		}
		for c := range orig.Cols {
			for r := range orig.NumRows() {
				if back.Value(c, r) != orig.Value(c, r) {
					t.Fatalf("trial %d: cell (%d,%d) %q -> %q", trial, c, r, orig.Value(c, r), back.Value(c, r))
				}
			}
		}
	}
}

// TestReadNeverPanics feeds arbitrary bytes through the full pipeline.
func TestReadNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ReadBytes("fuzz.csv", data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestReadStructuredFuzz biases the fuzz toward CSV-looking inputs.
func TestReadStructuredFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pieces := []string{"a", "b,c", "\"x,y\"", "\n", ",", "\"", "n/a", "1", "", "\r\n", "é"}
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		tb, err := ReadBytes("fuzz.csv", []byte(b.String()))
		if err != nil {
			continue
		}
		// Invariants on every successful parse.
		if tb.NumCols() == 0 {
			t.Fatalf("trial %d: parsed table with zero columns", trial)
		}
		for c := range tb.Cols {
			if len(tb.Column(c)) != tb.NumRows() {
				t.Fatalf("trial %d: ragged internal columns", trial)
			}
		}
		for _, name := range tb.Cols {
			if name == "" {
				t.Fatalf("trial %d: empty header name survived", trial)
			}
		}
	}
}
