package values_test

import (
	"math"
	"sync"
	"testing"

	"ogdp/internal/gen"
	"ogdp/internal/values"
)

// edgeCells are spellings the study's corpus does not produce but the
// classifier's skip conditions must get right: case-folded month
// names, RFC 3339 zones, fractional seconds, special and hex floats,
// and runes outside ASCII that strings.ToLower/ToUpper fold onto ASCII
// letters (ſ, ı, İ, the Kelvin sign).
var edgeCells = []string{
	"", " ", "-", "...", "N/A", "NuLL", " nan ", "\xff",
	"jan 2, 2006", "JANUARY 2, 2006", "Sept 2, 2006", "02-JAN-2006", "2 Jan 2006", "2 jan 2006",
	"2006-01-02T15:04:05Z", "2006-01-02T15:04:05+07:00", "2006-01-02T15:04:05z", "2006-01-02t15:04:05Z",
	"2006-01-02 15:04:05.123", "2006-01-02T15:04:05.999999999Z", "2006-01-02 15:04:05,5",
	"06/30/2021 12:30", "30/06/2021", "20200115", "2020-13", "2020-01", "9999-12-31", "0001-01-01 00:00:00",
	"-inf", "+Inf", "Infinity", "nan", "+nan", "0x1.8p1", "-0X1P-2", "1_000.5", "1e5", "1E+5", ".5", "5.",
	"1,234", "1,234.5", "-12,345,678", "1,23", "1234,5", "12%", "1.5%", "%", "1.2.3", "9223372036854775808",
	"true", "FALSE", "falſe", "Yes", "n", "K", "İ",
	"poınt (1 2)", "POINT(1 2)", "point ( 1 2 )", "LINEſTRING (1 2)", "multipolygon (((1 2)))",
	`{"type": "Point", "coordinates": [1, 2]}`, "(43.4723, -80.5449)", "43.4723 -80.5449",
	"43.4723 -80.5449", "43.4723\u0085-80.5449", "nan, 1.5", "1.5, 2.5, 3.5", "91.5, 0",
	"Police", "Smith, John", "123 Main St", "Apt 5", "Residential", " 5", "+5", "--5",
}

var (
	studyOnce  sync.Once
	studyEncs  [][]string // per column: the distinct values
	studyCnts  [][]int32  // aligned multiplicities
	studyCells []string   // every distinct cell of the four portals
)

// studyVocabulary encodes every column of the four generated portals
// at scale 0.05, seed 1 (the study's test scale), so the plain test run
// holds the classifier to its oracle on the study's whole vocabulary.
func studyVocabulary() (dicts [][]string, counts [][]int32, cells []string) {
	studyOnce.Do(func() {
		seen := map[string]bool{}
		for _, prof := range gen.Profiles() {
			for _, tb := range gen.Generate(prof, 0.05, 1).Tables() {
				for c := 0; c < tb.NumCols(); c++ {
					e := tb.Encoding(c)
					studyEncs = append(studyEncs, e.Dict)
					studyCnts = append(studyCnts, e.DictCounts)
					for _, v := range e.Dict {
						if !seen[v] {
							seen[v] = true
							studyCells = append(studyCells, v)
						}
					}
				}
			}
		}
	})
	return studyEncs, studyCnts, studyCells
}

// checkClassify holds every classification kernel to its oracle on s.
func checkClassify(t *testing.T, s string) {
	t.Helper()
	if got, want := values.IsNull(s), values.OracleIsNull(s); got != want {
		t.Errorf("IsNull(%q) = %v, oracle %v", s, got, want)
	}
	if got, want := values.IsBool(s), values.OracleIsBool(s); got != want {
		t.Errorf("isBool(%q) = %v, oracle %v", s, got, want)
	}
	if got, want := values.KindOf(s), values.OracleKindOf(s); got != want {
		t.Errorf("KindOf(%q) = %v, oracle %v", s, got, want)
	}
	n, ok := values.ParseInt(s)
	wn, wok := values.OracleParseInt(s)
	if n != wn || ok != wok {
		t.Errorf("ParseInt(%q) = %d, %v; oracle %d, %v", s, n, ok, wn, wok)
	}
	f, ok := values.ParseFloat(s)
	wf, wok := values.OracleParseFloat(s)
	if ok != wok || !(f == wf || math.IsNaN(f) && math.IsNaN(wf)) {
		t.Errorf("ParseFloat(%q) = %v, %v; oracle %v, %v", s, f, ok, wf, wok)
	}
	ts, ok := values.ParseTimestamp(s)
	wts, wok := values.OracleParseTimestamp(s)
	_, off := ts.Zone()
	_, woff := wts.Zone()
	if ok != wok || !ts.Equal(wts) || off != woff {
		t.Errorf("ParseTimestamp(%q) = %v, %v; oracle %v, %v", s, ts, ok, wts, wok)
	}
	if got, want := values.IsGeo(s), values.OracleIsGeo(s); got != want {
		t.Errorf("IsGeo(%q) = %v, oracle %v", s, got, want)
	}
}

// TestClassifyStudyVocabulary holds the classifier to its oracle on
// every distinct cell of the study's corpus.
func TestClassifyStudyVocabulary(t *testing.T) {
	_, _, cells := studyVocabulary()
	for _, s := range cells {
		checkClassify(t, s)
	}
}

// FuzzClassify: for any string, every classification kernel returns
// exactly what the classifier returned before its skip conditions
// (oracle_test.go). The study's vocabulary runs to tens of thousands
// of cells, too many for the fuzzer's baseline pass, so the seeds are
// one cell per shape (runs of digits, lower- and uppercase letters
// collapsed) plus edgeCells.
func FuzzClassify(f *testing.F) {
	_, _, cells := studyVocabulary()
	shapes := map[string]bool{}
	for _, s := range cells {
		if sh := shape(s); !shapes[sh] {
			shapes[sh] = true
			f.Add(s)
		}
	}
	for _, s := range edgeCells {
		f.Add(s)
	}
	f.Fuzz(checkClassify)
}

// shape maps s to its character-class skeleton: each run of digits
// becomes "9", of lowercase letters "a", of uppercase letters "A";
// other bytes stay.
func shape(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c = '9'
		case 'a' <= c && c <= 'z':
			c = 'a'
		case 'A' <= c && c <= 'Z':
			c = 'A'
		}
		if n := len(b); n == 0 || b[n-1] != c || c != '9' && c != 'a' && c != 'A' {
			b = append(b, c)
		}
	}
	return string(b)
}

// TestInferCountedMatchesOracle: parsing each distinct value once must
// leave every column type of the study unchanged, including the quirk
// that a padded integer counts as an integer whose value is 0.
func TestInferCountedMatchesOracle(t *testing.T) {
	dicts, counts, _ := studyVocabulary()
	dicts = append(dicts,
		[]string{" 1", " 2", " 3", "4"},
		[]string{"5", "6", "7 ", "8"},
		[]string{"1,000", "1,001", "1,002"},
		[]string{"+1", "2", "-3", "n/a"},
		edgeCells)
	counts = append(counts, nil, nil, nil, nil, nil)
	for i, d := range dicts {
		got := values.InferCounted(d, counts[i], values.InferOptions{})
		if want := values.OracleInferCounted(d, counts[i], values.InferOptions{}); got != want {
			t.Errorf("InferCounted(%q) = %v, oracle %v", d, got, want)
		}
	}
}

// TestKindOfTextAllocs: classifying text cells builds no error values
// and no lowered copies.
func TestKindOfTextAllocs(t *testing.T) {
	cells := []string{"Police", "Smith, John", "123 Main St", "Apt 5", "1.2.3", "Residential"}
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range cells {
			values.KindOf(s)
		}
	}); n != 0 {
		t.Errorf("KindOf on text cells: %v allocations per run, want 0", n)
	}
}
