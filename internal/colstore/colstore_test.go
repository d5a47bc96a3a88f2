package colstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ogdp/internal/table"
)

func sampleTable() *table.Table {
	t := table.FromRows("permits.csv", []string{"id", "district", "issued", "fee"}, [][]string{
		{"1", "Innere Stadt", "2023-01-04", "120.50"},
		{"2", "Leopoldstadt", "2023-01-05", ""},
		{"3", "Innere Stadt", "2023-01-05", "98.00"},
		{"4", "NA", "2023-02-11", "120.50"},
		{"5", "Landstraße", "", "33.10"},
	})
	t.Ragged = table.RaggedCells{Truncated: 2, Padded: 1}
	return t
}

func writeSample(t *testing.T) (path string, src *table.Table) {
	t.Helper()
	src = sampleTable()
	path = filepath.Join(t.TempDir(), "permits.col")
	if _, err := WriteFile(path, src, 0xfeedbeef); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path, src
}

func TestRoundtrip(t *testing.T) {
	path, src := writeSample(t)
	got, hash, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if hash != 0xfeedbeef {
		t.Fatalf("content hash = %#x, want 0xfeedbeef", hash)
	}
	if got.Name != src.Name || !reflect.DeepEqual(got.Cols, src.Cols) {
		t.Fatalf("identity mismatch: %q %v", got.Name, got.Cols)
	}
	if got.Ragged != src.Ragged {
		t.Fatalf("Ragged = %+v, want %+v", got.Ragged, src.Ragged)
	}
	if !got.Encoded() {
		t.Fatal("loaded table should be encoding-backed")
	}
	for c := range src.Cols {
		se, ge := src.Encoding(c), got.Encoding(c)
		if !reflect.DeepEqual(se.Dict, ge.Dict) || !reflect.DeepEqual(se.Codes, ge.Codes) ||
			!reflect.DeepEqual(se.DictCounts, ge.DictCounts) || !reflect.DeepEqual(se.DictNull, ge.DictNull) {
			t.Fatalf("column %d encoding mismatch", c)
		}
		if !reflect.DeepEqual(se.ValueHashes(), ge.ValueHashes()) ||
			!reflect.DeepEqual(se.ValueHashCounts(), ge.ValueHashCounts()) {
			t.Fatalf("column %d hash block mismatch", c)
		}
		if se.Nulls() != ge.Nulls() {
			t.Fatalf("column %d nulls: %d vs %d", c, se.Nulls(), ge.Nulls())
		}
	}
	// Row materialization from the mapped dictionaries matches the source.
	if !reflect.DeepEqual(got.Rows(), src.Rows()) {
		t.Fatal("materialized rows differ from source")
	}
}

func TestRoundtripEmptyAndNarrow(t *testing.T) {
	dir := t.TempDir()
	for _, src := range []*table.Table{
		table.FromRows("empty.csv", nil, nil),
		table.FromRows("headeronly.csv", []string{"a", "b"}, nil),
	} {
		path := filepath.Join(dir, src.Name+Ext)
		if _, err := WriteFile(path, src, 7); err != nil {
			t.Fatalf("%s: WriteFile: %v", src.Name, err)
		}
		got, _, err := Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", src.Name, err)
		}
		if got.NumRows() != 0 || got.NumCols() != src.NumCols() {
			t.Fatalf("%s: got %d×%d", src.Name, got.NumCols(), got.NumRows())
		}
	}
}

// corrupt loads the file, applies f, writes it back, and asserts Load
// fails with an error mentioning want.
func corrupt(t *testing.T, want string, f func(b []byte) []byte) {
	t.Helper()
	path, _ := writeSample(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(b), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if err == nil {
		t.Fatalf("Load of corrupted file (%s) succeeded", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// restamp recomputes both checksums of a colstore image in place, so a
// deliberate change past them reaches the structural validation. An
// image too damaged to locate its regions is left as it is.
func restamp(b []byte) []byte {
	if uint64(len(b)) < headerSize+footerSize {
		return b
	}
	le := binary.LittleEndian
	dataOff := le.Uint64(b[offDataOff:])
	bodyEnd := uint64(len(b)) - footerSize
	if dataOff < headerSize || dataOff > bodyEnd {
		return b
	}
	le.PutUint64(b[bodyEnd:], checksum(b[dataOff:bodyEnd]))
	le.PutUint64(b[offHeaderSum:], checksum(b[:offHeaderSum], b[headerSize:dataOff]))
	return b
}

// The damaged-image cases. The TestCorrupt* tests run each through
// Load and name the error it must report; FuzzColstoreDecode starts
// from them.
var (
	truncateHalf        = func(b []byte) []byte { return b[:len(b)/2] }
	truncateBelowHeader = func(b []byte) []byte { return b[:17] }
	badMagic            = func(b []byte) []byte {
		b[0] = 'X'
		return b
	}
	// The version changes under a valid header checksum, so the
	// version check is what fires.
	badVersion = func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[offVersion:], 99)
		return restamp(b)
	}
	flipHeader = func(b []byte) []byte {
		b[offNumRows] ^= 1
		return b
	}
	flipBody = func(b []byte) []byte {
		b[binary.LittleEndian.Uint64(b[offDataOff:])] ^= 0xff
		return b
	}
	// Column 0's first code points past its dictionary under valid
	// checksums, so only the semantic validation can catch it.
	codeOutOfRange = func(b []byte) []byte {
		le := binary.LittleEndian
		base := le.Uint64(b[offDirOff:]) + dirHeadSize
		le.PutUint32(b[le.Uint64(b[base+deCodesOff*8:]):], 1<<30)
		return restamp(b)
	}
	corruptions = []func([]byte) []byte{
		truncateHalf, truncateBelowHeader, badMagic, badVersion, flipHeader, flipBody, codeOutOfRange,
	}
)

func TestCorruptTruncated(t *testing.T) { corrupt(t, "truncated", truncateHalf) }

func TestCorruptTruncatedBelowHeader(t *testing.T) { corrupt(t, "truncated", truncateBelowHeader) }

func TestCorruptBadMagic(t *testing.T) { corrupt(t, "bad magic", badMagic) }

func TestCorruptBadVersion(t *testing.T) { corrupt(t, "unsupported format version", badVersion) }

func TestCorruptHeaderChecksum(t *testing.T) { corrupt(t, "header checksum mismatch", flipHeader) }

func TestCorruptBodyChecksum(t *testing.T) { corrupt(t, "body checksum mismatch", flipBody) }

func TestCorruptCodeOutOfRange(t *testing.T) { corrupt(t, "out of dictionary range", codeOutOfRange) }

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.col")
	if err := AtomicWrite(path, []byte("hello"), true); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "x.col" {
		t.Fatalf("directory has %v, want just x.col", ents)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
}
