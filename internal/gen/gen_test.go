package gen

import (
	"reflect"
	"testing"

	"ogdp/internal/classify"
	"ogdp/internal/fd"
	"ogdp/internal/join"
	"ogdp/internal/keys"
	"ogdp/internal/table"
	"ogdp/internal/union"
	"ogdp/internal/values"
)

const (
	testScale = 0.25
	testSeed  = 7
)

func testCorpus(t *testing.T, prof PortalProfile) *Corpus {
	t.Helper()
	return Generate(prof, testScale, testSeed)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(CA(), 0.1, 3)
	b := Generate(CA(), 0.1, 3)
	if len(a.Metas) != len(b.Metas) {
		t.Fatalf("table counts differ: %d vs %d", len(a.Metas), len(b.Metas))
	}
	for i := range a.Metas {
		ta, tb := a.Metas[i].Table, b.Metas[i].Table
		if ta.Name != tb.Name || ta.NumRows() != tb.NumRows() || ta.NumCols() != tb.NumCols() {
			t.Fatalf("table %d differs: %v vs %v", i, ta, tb)
		}
		for c := range ta.Cols {
			for r := range ta.NumRows() {
				if ta.Value(c, r) != tb.Value(c, r) {
					t.Fatalf("cell differs at table %d col %d row %d", i, c, r)
				}
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(CA(), 0.1, 3)
	b := Generate(CA(), 0.1, 4)
	same := len(a.Metas) == len(b.Metas)
	if same {
		for i := range a.Metas {
			if a.Metas[i].Table.NumRows() != b.Metas[i].Table.NumRows() {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical corpora shapes")
	}
}

func TestCorpusBasicShape(t *testing.T) {
	for _, prof := range Profiles() {
		c := testCorpus(t, prof)
		if len(c.Datasets) == 0 || len(c.Metas) == 0 {
			t.Fatalf("%s: empty corpus", prof.Name)
		}
		if float64(len(c.Metas)) < 1.2*float64(len(c.Datasets)) && prof.Name != "US" {
			t.Errorf("%s: tables/dataset = %.2f, want > 1.2",
				prof.Name, float64(len(c.Metas))/float64(len(c.Datasets)))
		}
		for i, m := range c.Metas {
			if m.Table.NumRows() == 0 || m.Table.NumCols() == 0 {
				t.Errorf("%s: table %d is empty", prof.Name, i)
			}
			if len(m.Cols) != m.Table.NumCols() {
				t.Errorf("%s: table %d provenance arity mismatch", prof.Name, i)
			}
			if m.Dataset == "" || m.Topic == "" || m.RawSize == 0 {
				t.Errorf("%s: table %d missing meta: %+v", prof.Name, i, m)
			}
		}
	}
}

func TestDenormalizedTablesHaveFDs(t *testing.T) {
	c := testCorpus(t, CA())
	checked, withFD := 0, 0
	for _, m := range c.Metas {
		if m.Style != StyleDenormalized || m.Table.NumCols() > 20 || m.Table.NumRows() > 5000 {
			continue
		}
		checked++
		if fd.HasNontrivialFD(m.Table, fd.MaxLHS) {
			withFD++
		}
	}
	if checked == 0 {
		t.Skip("no small denormalized tables in sample")
	}
	if frac := float64(withFD) / float64(checked); frac < 0.5 {
		t.Errorf("only %.0f%% of denormalized tables have FDs, want most", frac*100)
	}
}

func TestKeyScarcityOrdering(t *testing.T) {
	// The US portal publishes tables with key columns more often than SG
	// (paper §4.1: 33%% vs 58%% of tables lack a single key).
	noKeyFrac := func(c *Corpus) float64 {
		n := 0
		for _, m := range c.Metas {
			if len(keys.KeyColumns(m.Table)) == 0 {
				n++
			}
		}
		return float64(n) / float64(len(c.Metas))
	}
	sg := noKeyFrac(testCorpus(t, SG()))
	us := noKeyFrac(testCorpus(t, US()))
	if us >= sg {
		t.Errorf("no-key fraction: US %.2f should be below SG %.2f", us, sg)
	}
}

func TestNullProfiles(t *testing.T) {
	// SG is nearly null-free; CA has many null-bearing columns (§3.3).
	nullColFrac := func(c *Corpus) float64 {
		cols, withNull := 0, 0
		for _, m := range c.Metas {
			for ci := range m.Table.Cols {
				cols++
				if m.Table.Profile(ci).Nulls > 0 {
					withNull++
				}
			}
		}
		return float64(withNull) / float64(cols)
	}
	sg := nullColFrac(testCorpus(t, SG()))
	ca := nullColFrac(testCorpus(t, CA()))
	if sg > 0.2 {
		t.Errorf("SG null column fraction = %.2f, want < 0.2", sg)
	}
	if ca < 0.3 {
		t.Errorf("CA null column fraction = %.2f, want > 0.3", ca)
	}
}

func TestUnionableGroupsExist(t *testing.T) {
	c := testCorpus(t, UK())
	ua := union.Find(c.Tables())
	frac := float64(ua.UnionableTables()) / float64(len(c.Metas))
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("UK unionable fraction = %.2f, want the paper's band (~0.77)", frac)
	}
}

func TestJoinabilityBand(t *testing.T) {
	for _, prof := range Profiles() {
		c := testCorpus(t, prof)
		ja := join.Find(c.Tables(), join.Options{})
		joinable := map[int]bool{}
		for _, p := range ja.Pairs {
			joinable[p.T1] = true
			joinable[p.T2] = true
		}
		frac := float64(len(joinable)) / float64(len(c.Metas))
		// The paper reports 48.4%..66.4%; allow slack for sampling noise
		// at small scale.
		if frac < 0.30 || frac > 0.85 {
			t.Errorf("%s: joinable table fraction = %.2f, outside the plausible band", prof.Name, frac)
		}
	}
}

func TestOracleLabelsPlantedJoins(t *testing.T) {
	c := testCorpus(t, CA())
	oracle := Truth(c)
	ja := join.Find(c.Tables(), join.Options{})

	var plantedUseful, crossTopic int
	for _, p := range ja.Pairs {
		l := oracle.LabelJoin(p)
		m1, m2 := c.Metas[p.T1], c.Metas[p.T2]
		c1, c2 := m1.Cols[p.C1], m2.Cols[p.C2]
		// Master-aspect joins within one dataset on the entity key must
		// be useful.
		if m1.Dataset == m2.Dataset && c1.Role == RoleEntityKey && c2.Role == RoleEntityKey {
			plantedUseful++
			if l != classify.LabelUseful {
				t.Errorf("intra-dataset entity-key join labeled %v", l)
			}
		}
		// Cross-category pairs must never be useful.
		if m1.Category != m2.Category {
			crossTopic++
			if l == classify.LabelUseful &&
				!(c1.Role == RoleDateKey && c2.Role == RoleDateKey && m1.EventClass == m2.EventClass) {
				t.Errorf("cross-category join labeled useful: %v ⨝ %v", m1.Topic, m2.Topic)
			}
		}
	}
	if plantedUseful == 0 {
		t.Error("no intra-dataset entity-key joins found; generator should plant them")
	}
	if crossTopic == 0 {
		t.Error("no cross-category joinable pairs found; generator should produce accidental joins")
	}
}

func TestOracleEventStatsUseful(t *testing.T) {
	c := testCorpus(t, US())
	oracle := Truth(c)
	ja := join.Find(c.Tables(), join.Options{})
	found := false
	for _, p := range ja.Pairs {
		m1, m2 := c.Metas[p.T1], c.Metas[p.T2]
		if m1.Style == StyleEventStats && m2.Style == StyleEventStats &&
			m1.EventClass == m2.EventClass && m1.Dataset != m2.Dataset &&
			m1.Cols[p.C1].Role == RoleDateKey && m2.Cols[p.C2].Role == RoleDateKey {
			found = true
			if oracle.LabelJoin(p) != classify.LabelUseful {
				t.Errorf("same-event date-key join should be useful")
			}
		}
	}
	if !found {
		t.Error("no inter-dataset event-stats date joins found")
	}
}

func TestOracleUnionLabels(t *testing.T) {
	c := testCorpus(t, US())
	oracle := Truth(c)
	ua := union.Find(c.Tables())
	var useful, accidental int
	for _, g := range ua.Groups {
		for i := 1; i < len(g.Tables); i++ {
			l := oracle.LabelUnion(g.Tables[0], g.Tables[i])
			if l == classify.LabelUseful {
				useful++
			} else {
				accidental++
			}
		}
	}
	if useful == 0 {
		t.Error("no useful unions in US corpus")
	}
	// The paper: union pairs are overwhelmingly useful.
	if useful < accidental {
		t.Errorf("useful unions (%d) should dominate accidental (%d)", useful, accidental)
	}
}

func TestDuplicateTablesAreCopies(t *testing.T) {
	c := testCorpus(t, US())
	found := false
	for _, m := range c.Metas {
		if m.Style != StyleDuplicate {
			continue
		}
		found = true
		var src *TableMeta
		for _, o := range c.Metas {
			if o.Table.Name == m.DuplicateOf && o.Style != StyleDuplicate {
				src = o
				break
			}
		}
		if src == nil {
			t.Errorf("duplicate without source: %s", m.DuplicateOf)
			continue
		}
		if src.Table.SchemaKey() != m.Table.SchemaKey() {
			t.Error("duplicate schema differs from source")
		}
		if src.Dataset == m.Dataset {
			t.Error("duplicate republished under the same dataset")
		}
	}
	if !found {
		t.Skip("no duplicates at this scale/seed")
	}
}

// TestDuplicateTablesShareSourceCells: a republished duplicate is built
// over its source's cell slices rather than a copy of them, and its
// encodings and profiles equal the source's.
func TestDuplicateTablesShareSourceCells(t *testing.T) {
	c := testCorpus(t, US())
	byName := map[string]*table.Table{}
	for _, m := range c.Metas {
		if m.Style != StyleDuplicate {
			byName[m.Table.Name] = m.Table
		}
	}
	found := false
	for _, m := range c.Metas {
		if m.Style != StyleDuplicate {
			continue
		}
		src := byName[m.DuplicateOf]
		if src == nil {
			t.Fatalf("duplicate without source: %s", m.DuplicateOf)
		}
		dup := m.Table
		if dup == src || dup.NumCols() != src.NumCols() || dup.NumRows() != src.NumRows() {
			t.Fatalf("duplicate %s: %v, source %v", dup.Name, dup, src)
		}
		for col := 0; col < dup.NumCols(); col++ {
			if dup.NumRows() > 0 && &dup.Column(col)[0] != &src.Column(col)[0] {
				t.Errorf("duplicate %s column %d does not share the source's cells", dup.Name, col)
			}
			de, se := dup.Encoding(col), src.Encoding(col)
			if !reflect.DeepEqual(de.Dict, se.Dict) || !reflect.DeepEqual(de.Codes, se.Codes) ||
				!reflect.DeepEqual(de.ValueHashes(), se.ValueHashes()) {
				t.Errorf("duplicate %s column %d: encoding differs from the source's", dup.Name, col)
			}
			if !reflect.DeepEqual(dup.Profile(col), src.Profile(col)) {
				t.Errorf("duplicate %s column %d: profile differs from the source's", dup.Name, col)
			}
		}
		found = true
	}
	if !found {
		t.Skip("no duplicates at this scale/seed")
	}
}
func TestPartitionedTablesShape(t *testing.T) {
	c := testCorpus(t, CA())
	for _, m := range c.Metas {
		if m.Style != StylePartitioned {
			continue
		}
		sp := m.Table.ColumnIndex("species")
		if sp < 0 {
			t.Fatalf("partitioned table lacks species column: %v", m.Table.Cols)
		}
		p := m.Table.Profile(sp)
		if p.IsKey() {
			t.Error("partition key must not be a perfect key (Total/Other rows)")
		}
		hasTotal := false
		for _, v := range m.Table.Column(sp) {
			if v == "Total" {
				hasTotal = true
				break
			}
		}
		if !hasTotal {
			t.Error("partitioned table lacks Total aggregate rows")
		}
		return
	}
	t.Skip("no partitioned tables at this scale/seed")
}

func TestStandardizedSchemaSG(t *testing.T) {
	c := testCorpus(t, SG())
	n := 0
	for _, m := range c.Metas {
		if m.Style != StyleStandardized {
			continue
		}
		n++
		if m.Table.ColumnIndex("level_1") < 0 || m.Table.ColumnIndex("year") < 0 || m.Table.ColumnIndex("value") < 0 {
			t.Errorf("standardized table columns = %v", m.Table.Cols)
		}
	}
	if n == 0 {
		t.Error("SG corpus has no standardized tables")
	}
}

func TestMetadataDistribution(t *testing.T) {
	sg := testCorpus(t, SG())
	for _, d := range sg.Datasets {
		if d.Metadata != 1 {
			t.Fatalf("SG dataset %s metadata = %d, want structured (1)", d.ID, d.Metadata)
		}
	}
	us := testCorpus(t, US())
	for _, d := range us.Datasets {
		if d.Metadata == 1 {
			t.Fatalf("US dataset %s has structured metadata, paper says 0%%", d.ID)
		}
	}
}

func TestIncrementalIDColumns(t *testing.T) {
	c := testCorpus(t, US())
	bare, incremental := 0, 0
	for _, m := range c.Metas {
		for ci, info := range m.Cols {
			if info.Role != RoleSequentialID {
				continue
			}
			// Prefixed ids are strings; bare ids should mostly type as
			// incremental ints (dirty small tables can fall to integer).
			if v := m.Table.Value(ci, 0); values.KindOf(v) == values.KindInt {
				bare++
				if m.Table.Profile(ci).Type == values.ColIncrementalInt {
					incremental++
				}
			}
		}
	}
	if bare == 0 {
		t.Fatal("no bare sequential id columns found")
	}
	if frac := float64(incremental) / float64(bare); frac < 0.7 {
		t.Errorf("only %.0f%% of bare ids typed incremental", frac*100)
	}
}

func TestTablesProjection(t *testing.T) {
	c := testCorpus(t, SG())
	tabs := c.Tables()
	if len(tabs) != len(c.Metas) {
		t.Fatal("Tables() length mismatch")
	}
	for i := range tabs {
		if tabs[i] != c.Metas[i].Table {
			t.Fatal("Tables() order mismatch")
		}
	}
}

var benchSink *Corpus

func BenchmarkGenerateCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = Generate(CA(), 0.1, int64(i))
	}
}

func sampleTables(c *Corpus, max int) []*table.Table {
	tabs := c.Tables()
	if len(tabs) > max {
		tabs = tabs[:max]
	}
	return tabs
}

func BenchmarkJoinOverCorpus(b *testing.B) {
	c := Generate(CA(), 0.15, 1)
	tabs := sampleTables(c, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.Find(tabs, join.Options{})
	}
}

// TestIntegrationGrade pins the ranked-search ground truth: grades
// are in range, zero on the diagonal, symmetric, and consistent with
// the pairwise labels they are derived from.
func TestIntegrationGrade(t *testing.T) {
	c := testCorpus(t, CA())
	oracle := Truth(c)
	n := len(c.Metas)
	counts := [3]int{}
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			g := oracle.IntegrationGrade(q, p)
			if g < 0 || g > 2 {
				t.Fatalf("grade [%d][%d] = %d out of range", q, p, g)
			}
			counts[g]++
			if q == p && g != 0 {
				t.Errorf("self-grade [%d] = %d", q, g)
			}
			if back := oracle.IntegrationGrade(p, q); back != g {
				t.Errorf("asymmetric grade: [%d][%d]=%d but [%d][%d]=%d", q, p, g, p, q, back)
			}
		}
	}
	if counts[2] == 0 {
		t.Error("no useful pairs graded 2; generator plants them")
	}
	if counts[0] == 0 {
		t.Error("no irrelevant pairs graded 0")
	}
	// A planted useful join must always lift the pair to grade 2.
	ja := join.Find(c.Tables(), join.Options{})
	for _, p := range ja.Pairs {
		if oracle.LabelJoin(p) == classify.LabelUseful {
			if g := oracle.IntegrationGrade(p.T1, p.T2); g != 2 {
				t.Errorf("useful join pair (%d,%d) graded %d", p.T1, p.T2, g)
			}
		}
	}
}
