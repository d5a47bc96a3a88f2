package csvio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ogdp/internal/table"
)

func TestReadSimple(t *testing.T) {
	in := "id,name,province\n1,Waterloo,ON\n2,Toronto,ON\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumCols() != 3 || tb.NumRows() != 2 {
		t.Fatalf("shape = %d×%d", tb.NumCols(), tb.NumRows())
	}
	if tb.Cols[1] != "name" || tb.Value(1, 1) != "Toronto" {
		t.Errorf("content wrong: %+v", tb.Rows())
	}
}

func TestHeaderInferenceSkipsPreamble(t *testing.T) {
	// Publication style: title rows and blanks before the real header.
	in := "Annual Report,,\n,,\nid,name,province\n1,Waterloo,ON\n2,Toronto,ON\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cols[0] != "id" || tb.NumRows() != 2 {
		t.Fatalf("header inference failed: cols=%v rows=%d", tb.Cols, tb.NumRows())
	}
}

func TestHeaderInferenceRejectsNullTokens(t *testing.T) {
	in := "id,n/a,province\nid,name,province\n1,Waterloo,ON\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cols[1] != "name" {
		t.Errorf("header = %v, want the row without null tokens", tb.Cols)
	}
}

func TestNoHeader(t *testing.T) {
	in := "a,,c\n1,,3\n"
	_, err := ReadBytes("t.csv", []byte(in))
	if !errors.Is(err, ErrNoHeader) {
		t.Errorf("err = %v, want ErrNoHeader", err)
	}
}

func TestEmpty(t *testing.T) {
	_, err := ReadBytes("t.csv", nil)
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestWideTableCutoff(t *testing.T) {
	cols := make([]string, 120)
	vals := make([]string, 120)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
		vals[i] = "x"
	}
	in := strings.Join(cols, ",") + "\n" + strings.Join(vals, ",") + "\n"
	_, err := ReadBytes("wide.csv", []byte(in))
	if !errors.Is(err, ErrTooWide) {
		t.Errorf("err = %v, want ErrTooWide", err)
	}
	// Cutoff disabled.
	tb, err := ReadWith("wide.csv", strings.NewReader(in), Options{MaxColumns: -1})
	if err != nil || tb.NumCols() != 120 {
		t.Errorf("disabled cutoff: tb=%v err=%v", tb, err)
	}
}

func TestTrailingEmptyColumnsRemoved(t *testing.T) {
	in := "id,name,x,y\n1,a,,\n2,b,,\n3,c,,n/a\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumCols() != 2 {
		t.Errorf("cols = %v, want trailing empties removed", tb.Cols)
	}
	// Interior empty columns are kept.
	in2 := "id,x,name\n1,,a\n2,,b\n"
	tb2, _ := ReadBytes("t.csv", []byte(in2))
	if tb2.NumCols() != 3 {
		t.Errorf("interior empty column must be kept: %v", tb2.Cols)
	}
	// Option disables removal.
	tb3, _ := ReadWith("t.csv", strings.NewReader(in), Options{KeepEmptyTrailingColumns: true})
	if tb3.NumCols() != 4 {
		t.Errorf("KeepEmptyTrailingColumns ignored: %v", tb3.Cols)
	}
}

func TestRaggedRows(t *testing.T) {
	in := "a,b,c\n1,2\n1,2,3,4\n1,2,3\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumCols() != 3 || tb.NumRows() != 3 {
		t.Fatalf("shape = %d×%d", tb.NumCols(), tb.NumRows())
	}
	if tb.Value(2, 0) != "" { // short row padded
		t.Errorf("short row not padded: %v", tb.Column(2))
	}
	if tb.Value(2, 1) != "3" { // long row truncated
		t.Errorf("long row not truncated: %v", tb.Column(2))
	}
}

func TestQuotedFields(t *testing.T) {
	in := "id,desc\n1,\"hello, world\"\n2,\"line\nbreak\"\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Value(1, 0) != "hello, world" || tb.Value(1, 1) != "line\nbreak" {
		t.Errorf("quoted parsing wrong: %v", tb.Column(1))
	}
}

func TestBlankHeaderNamesFilled(t *testing.T) {
	// A header row with all cells non-null is required, so use MaxRows
	// trimming instead: header with whitespace-only name is null and the
	// header search moves on; verify unnamed columns never appear from a
	// valid header.
	in := "id , name \n1,a\n"
	tb, err := ReadBytes("t.csv", []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cols[0] != "id" || tb.Cols[1] != "name" {
		t.Errorf("header names not trimmed: %v", tb.Cols)
	}
}

func TestMaxRows(t *testing.T) {
	var b strings.Builder
	b.WriteString("id\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	tb, err := ReadWith("t.csv", strings.NewReader(b.String()), Options{MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 10 {
		t.Errorf("MaxRows: got %d rows", tb.NumRows())
	}
}

func TestTSV(t *testing.T) {
	in := "id\tname\n1\talpha\n"
	tb, err := ReadWith("t.tsv", strings.NewReader(in), Options{Comma: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cols[1] != "name" || tb.Value(1, 0) != "alpha" {
		t.Errorf("tsv parse wrong: %v %v", tb.Cols, tb.Rows())
	}
}

func TestRoundTrip(t *testing.T) {
	orig := table.FromRows("t.csv", []string{"id", "desc"}, [][]string{
		{"1", "plain"},
		{"2", "with, comma"},
		{"3", "with \"quotes\""},
	})
	data := Bytes(orig)
	back, err := ReadBytes("t.csv", data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != orig.NumRows() || back.NumCols() != orig.NumCols() {
		t.Fatalf("round trip shape: %v", back)
	}
	for c := range orig.Cols {
		for r := range orig.NumRows() {
			if back.Value(c, r) != orig.Value(c, r) {
				t.Errorf("cell (%d,%d): %q != %q", c, r, back.Value(c, r), orig.Value(c, r))
			}
		}
	}
}

func TestWriteError(t *testing.T) {
	tb := table.FromRows("t", []string{"a"}, [][]string{{"1"}})
	w := failWriter{}
	if err := Write(w, tb); err == nil {
		t.Error("Write to failing writer should error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestHeaderScanRowsOption(t *testing.T) {
	// Header appears after 3 preamble rows; a scan depth of 2 misses it.
	in := "x,,\ny,,\nz,,\nid,name,province\n1,a,ON\n"
	_, err := ReadWith("t.csv", strings.NewReader(in), Options{HeaderScanRows: 2})
	if !errors.Is(err, ErrNoHeader) {
		t.Errorf("shallow scan: err = %v, want ErrNoHeader", err)
	}
	tb, err := ReadWith("t.csv", strings.NewReader(in), Options{HeaderScanRows: 10})
	if err != nil || tb.Cols[0] != "id" {
		t.Errorf("deep scan failed: %v err=%v", tb, err)
	}
}

func BenchmarkRead(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("id,name,province,value\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d,city-%d,ON,%d.5\n", i, i%50, i)
	}
	data := []byte(sb.String())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBytes("t.csv", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	rows := make([][]string, 5000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), "name", "ON", "1.5"}
	}
	tb := table.FromRows("t", []string{"id", "name", "province", "value"}, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tb); err != nil {
			b.Fatal(err)
		}
	}
}
