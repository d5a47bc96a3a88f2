package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ogdp/internal/csvio"
	"ogdp/internal/stats"
	"ogdp/internal/table"
)

// Generate builds a synthetic portal corpus from a profile. scale
// multiplies the dataset count (1.0 reproduces the calibrated size;
// tests use smaller scales); seed makes generation deterministic.
func Generate(prof PortalProfile, scale float64, seed int64) *Corpus {
	if scale <= 0 {
		scale = 1
	}
	g := &generator{
		prof:   prof,
		scale:  scale,
		rng:    rand.New(rand.NewSource(seed)),
		pools:  buildPools(prof.StatePool),
		topics: topicList(),
		corpus: &Corpus{PortalName: prof.Name, Profile: prof},
	}
	g.buildEventDates()

	nDatasets := int(float64(prof.BaseDatasets) * scale)
	if nDatasets < 4 {
		nDatasets = 4
	}
	for i := 0; i < nDatasets; i++ {
		g.makeDataset()
	}
	return g.corpus
}

// commonRowCounts are "round" sizes many unrelated tables share, which
// makes their sequential-ID columns overlap (the paper's most common
// accidental join pattern).
var commonRowCounts = []int{50, 100, 150, 200, 365, 500, 1000}

type generator struct {
	prof   PortalProfile
	scale  float64
	rng    *rand.Rand
	pools  map[string]*entityPool
	topics []struct{ topic, category string }
	corpus *Corpus

	dsCounter  int
	tblCounter int

	// nullPlan, when non-nil, fixes the per-column null ratios used by
	// injectNulls (indexable by column position; -1 means no nulls).
	nullPlan []float64

	// eventDates maps event class -> its shared date range.
	eventDates map[string][]string
	eventNames []string
	eventIdx   int
}

func (g *generator) buildEventDates() {
	g.eventNames = []string{"covid", "influenza", "air quality alerts", "road safety", "energy demand"}
	g.eventDates = make(map[string][]string)
	for i, name := range g.eventNames {
		year := 2017 + i
		var dates []string
		for m := 1; m <= 12; m++ {
			for d := 1; d <= 28; d++ {
				dates = append(dates, fmt.Sprintf("%d-%02d-%02d", year, m, d))
			}
		}
		g.eventDates[name] = dates
	}
}

// ---- dataset dispatch ----

func (g *generator) makeDataset() {
	w := []float64{
		g.prof.WDenormalized, g.prof.WSemiNorm, g.prof.WPeriodic,
		g.prof.WStandardized, g.prof.WEventStats, g.prof.WPartitioned,
		g.prof.WDuplicate,
	}
	switch g.pickWeighted(w) {
	case 0:
		g.makeDenormalizedDataset()
	case 1:
		g.makeSemiNormalizedDataset()
	case 2:
		g.makePeriodicDataset()
	case 3:
		g.makeStandardizedDataset()
	case 4:
		g.makeEventStatsDataset()
	case 5:
		g.makePartitionedDataset()
	case 6:
		g.makeDuplicateDataset()
	}
}

func (g *generator) pickWeighted(w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	if stats.ApproxEq(total, 0) {
		return 0
	}
	r := g.rng.Float64() * total
	for i, x := range w {
		r -= x
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}

func (g *generator) pickTopic() (topic, category string) {
	t := g.topics[g.rng.Intn(len(g.topics))]
	return t.topic, t.category
}

func (g *generator) newDataset(topic, category string) *DatasetMeta {
	g.dsCounter++
	ds := DatasetMeta{
		ID:        fmt.Sprintf("%s-ds-%05d", g.prof.Name, g.dsCounter),
		Title:     fmt.Sprintf("%s (%s dataset %d)", topic, g.prof.Name, g.dsCounter),
		Category:  category,
		Published: g.publicationDate(),
		Metadata:  g.metadataStyle(),
	}
	g.corpus.Datasets = append(g.corpus.Datasets, ds)
	return &g.corpus.Datasets[len(g.corpus.Datasets)-1]
}

func (g *generator) publicationDate() time.Time {
	from, to := g.prof.YearFrom, g.prof.YearTo
	var year int
	if g.prof.BulkYear != 0 && g.rng.Float64() < 0.7 {
		year = g.prof.BulkYear
	} else {
		year = from + g.rng.Intn(to-from+1)
	}
	month := 1 + g.rng.Intn(12)
	day := 1 + g.rng.Intn(28)
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
}

// metadataStyle draws per the Table 3 distribution. The returned int
// matches ckan.MetadataStyle: 0 lacking, 1 structured, 2 unstructured,
// 3 outside.
func (g *generator) metadataStyle() int {
	r := g.rng.Float64()
	switch {
	case r < g.prof.MetaStructured:
		return 1
	case r < g.prof.MetaStructured+g.prof.MetaUnstructured:
		return 2
	case r < g.prof.MetaStructured+g.prof.MetaUnstructured+g.prof.MetaOutside:
		return 3
	default:
		return 0
	}
}

// rowCount draws a lognormal row count around the portal median, with
// a chance of snapping to a common "round" size.
func (g *generator) rowCount() int {
	if g.rng.Float64() < 0.12 {
		return commonRowCounts[g.rng.Intn(len(commonRowCounts))]
	}
	m := float64(g.prof.MedianRows)
	n := int(m * math.Exp(g.rng.NormFloat64()*g.prof.RowSigma))
	maxRows := int(float64(g.prof.MaxRows) * g.scale)
	if maxRows < 2000 {
		maxRows = 2000
	}
	if n < 10 {
		n = 10
	}
	if n > maxRows {
		n = maxRows
	}
	return n
}

// ---- column builders ----

// attrNames returns a pool's attribute names in sorted order; map
// iteration order would otherwise make generation non-deterministic.
func attrNames(pool *entityPool) []string {
	names := make([]string, 0, len(pool.attrs))
	for name := range pool.attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// colSpec pairs provenance with a per-row value generator.
type colSpec struct {
	info ColumnInfo
	gen  func(r int) string
}

// materialize generates the columns from specs, injects nulls, then
// constructs the table and records the meta.
func (g *generator) materialize(ds *DatasetMeta, topic string, style TableStyle, event string, name string, nRows int, specs []colSpec) *TableMeta {
	g.tblCounter++
	cols := make([]string, len(specs))
	infos := make([]ColumnInfo, len(specs))
	for i, s := range specs {
		cols[i] = s.info.Name
		infos[i] = s.info
	}
	data := make([][]string, len(specs))
	for c, s := range specs {
		col := make([]string, nRows)
		for r := 0; r < nRows; r++ {
			col[r] = s.gen(r)
		}
		data[c] = col
	}
	g.injectNulls(data, infos)
	t := table.New(name, cols, data)
	t.DatasetID = ds.ID

	meta := &TableMeta{
		Table:        t,
		Dataset:      ds.ID,
		DatasetTitle: ds.Title,
		Topic:        topic,
		Category:     ds.Category,
		Style:        style,
		EventClass:   event,
		Published:    ds.Published,
		Cols:         infos,
	}
	meta.RawSize = int64(len(csvio.Bytes(t)))
	g.corpus.Metas = append(g.corpus.Metas, meta)
	return meta
}

// injectNulls applies the portal's null profile to the non-key columns
// of data, rewriting cells in place before the table is constructed.
func (g *generator) injectNulls(data [][]string, infos []ColumnInfo) {
	nullTokens := []string{"", "", "", "n/a", "null", "-"}
	for c, info := range infos {
		switch info.Role {
		case RoleSequentialID, RoleEntityKey, RoleDateKey, RolePartitionKey:
			continue // preserve planted keys
		}
		var ratio float64
		if g.nullPlan != nil && c < len(g.nullPlan) {
			ratio = g.nullPlan[c]
		} else {
			ratio = g.rollNullRatio()
		}
		if ratio <= 0 {
			continue
		}
		col := data[c]
		for i := range col {
			if g.rng.Float64() < ratio {
				col[i] = nullTokens[g.rng.Intn(len(nullTokens))]
			}
		}
	}
}

// rollNullRatio draws one column's null ratio from the portal profile
// (0 means no nulls).
func (g *generator) rollNullRatio() float64 {
	r := g.rng.Float64()
	switch {
	case r < g.prof.AllNullFrac:
		return 1.0
	case r < g.prof.AllNullFrac+g.prof.HeavyNullFrac:
		return 0.5 + g.rng.Float64()*0.45
	case r < g.prof.NullColFrac:
		return 0.005 + g.rng.Float64()*0.25
	default:
		return 0
	}
}

// rollNullPlan pre-draws null ratios for n columns.
func (g *generator) rollNullPlan(n int) []float64 {
	plan := make([]float64, n)
	for i := range plan {
		plan[i] = g.rollNullRatio()
	}
	return plan
}

// seqIDSpec emits an incremental identifier column. About half of
// publishers prefix record ids with a dataset-specific code, which
// keeps their id columns from overlapping with anyone else's; ids
// exported from live systems usually continue from an arbitrary
// offset, so only 1-based ids overlap with other 1-based tables of a
// similar size. A third of id columns contain occasional duplicate
// ids (dirty exports), which keeps their overlap near-perfect while
// disqualifying them as keys.
func (g *generator) seqIDSpec(name string) colSpec {
	prefix := ""
	if g.rng.Float64() < 0.45 {
		prefix = fmt.Sprintf("%s%04d-", strings.ToUpper(g.prof.Name[:1]), g.dsCounter)
	}
	start := 1
	if g.rng.Float64() >= 0.45 {
		start = 1 + (1+g.rng.Intn(400))*250
	}
	dirty := g.rng.Float64() < 0.25
	return colSpec{
		info: ColumnInfo{Name: name, Role: RoleSequentialID},
		gen: func(r int) string {
			id := start + r
			if dirty && r%89 == 13 {
				id-- // duplicate of the previous row's id
			}
			if prefix != "" {
				return fmt.Sprintf("%s%d", prefix, id)
			}
			return fmt.Sprintf("%d", id)
		},
	}
}

// fkSpec draws repeating values from a pool (foreign-key style) with
// full pool coverage (given enough rows).
func (g *generator) fkSpec(pool *entityPool, role ColumnRole) []colSpec {
	return g.fkSpecCovering(pool, role, pool.size())
}

// fkSpecPartial draws foreign keys that only touch part of the pool:
// most transaction tables do not reference every entity, which is a
// big reason real intra-dataset joins fall below the 0.9 Jaccard bar.
func (g *generator) fkSpecPartial(pool *entityPool, role ColumnRole) []colSpec {
	n := pool.size()
	k := n
	if g.rng.Float64() >= 0.4 {
		k = int((0.55 + g.rng.Float64()*0.4) * float64(n))
		if k < 3 {
			k = 3
		}
	}
	return g.fkSpecCovering(pool, role, k)
}

// fkSpecCovering draws foreign keys restricted to k entities of the
// pool.
func (g *generator) fkSpecCovering(pool *entityPool, role ColumnRole, k int) []colSpec {
	rng := g.rng
	n := pool.size()
	if k > n {
		k = n
	}
	touchable := rng.Perm(n)[:k]
	// Per-row entity choice is memoized so dependent attributes agree.
	choice := map[int]int{}
	pick := func(r int) int {
		if v, ok := choice[r]; ok {
			return v
		}
		v := touchable[rng.Intn(k)]
		choice[r] = v
		return v
	}
	specs := []colSpec{{
		info: ColumnInfo{Name: pool.keyName, Role: role, Pool: pool.name},
		gen:  func(r int) string { return pool.values[pick(r)] },
	}}
	for _, attrName := range attrNames(pool) {
		vals := pool.attrs[attrName]
		specs = append(specs, colSpec{
			info: ColumnInfo{Name: attrName, Role: RoleEntityAttr, Pool: pool.name},
			gen:  func(r int) string { return vals[pick(r)] },
		})
	}
	return specs
}

// measureSpec generates a numeric measure column. Ranges are drawn per
// column; small ranges create the repetitive integer columns behind
// large join expansions.
func (g *generator) measureSpec(name string) colSpec {
	rng := g.rng
	switch g.rng.Intn(4) {
	case 0: // small-range count; the base offset keeps unrelated
		// columns from overlapping by accident more than occasionally
		limit := 100 + g.rng.Intn(400)
		base := g.rng.Intn(200) * 500
		return colSpec{
			info: ColumnInfo{Name: name, Role: RoleMeasure},
			gen:  func(r int) string { return fmt.Sprintf("%d", base+skewed(rng, limit)) },
		}
	case 1: // wide-range count
		limit := 10000 + g.rng.Intn(90000)
		base := g.rng.Intn(500) * 10000
		return colSpec{
			info: ColumnInfo{Name: name, Role: RoleMeasure},
			gen:  func(r int) string { return fmt.Sprintf("%d", base+skewed(rng, limit)) },
		}
	case 2: // one-decimal float
		limit := 1000 + g.rng.Intn(9000)
		base := g.rng.Intn(250) * 40
		return colSpec{
			info: ColumnInfo{Name: name, Role: RoleMeasure},
			gen:  func(r int) string { return fmt.Sprintf("%.1f", float64(base+skewed(rng, limit))/10) },
		}
	default: // percentage, quantized to one decimal so values repeat;
		// the per-column offset keeps unrelated percent columns from
		// sharing the same low-value vocabulary
		off := g.rng.Intn(60) * 10
		return colSpec{
			info: ColumnInfo{Name: name, Role: RoleMeasure},
			gen:  func(r int) string { return fmt.Sprintf("%.1f", float64(off+skewed(rng, 1000-off))/10) },
		}
	}
}

// domainSpec draws from a shared domain pool (state/province/year),
// covering the pool when the table is large.
func (g *generator) domainSpec(pool *entityPool) colSpec {
	rng := g.rng
	return colSpec{
		info: ColumnInfo{Name: pool.keyName, Role: RoleDomain, Pool: pool.name},
		gen:  func(r int) string { return pool.values[rng.Intn(pool.size())] },
	}
}

func (g *generator) freeTextSpec(name, topic string) colSpec {
	return colSpec{
		info: ColumnInfo{Name: name, Role: RoleFreeText},
		gen:  func(r int) string { return fmt.Sprintf("%s record %d notes", topic, r+1) },
	}
}

// skewed draws an integer in [0, limit) with a heavy skew toward small
// values and progressive rounding of large ones — the Zipf-like,
// rounded shape real counts and amounts have. It is what gives measure
// columns the high value repetition of §4.1.
func skewed(rng *rand.Rand, limit int) int {
	f := rng.Float64()
	v := int(float64(limit) * f * f * f * f * f)
	if v > 20 {
		step := v / 20
		v -= v % step
	}
	return v
}

// measureNames supplies plausible measure column names.
var measureNames = []string{
	"value", "amount", "count", "total", "rate", "average",
	"expenditure", "population", "score", "quantity", "volume",
	"budget", "revenue", "incidents", "duration",
}

func (g *generator) measureName(i int) string {
	return measureNames[(i+g.rng.Intn(3))%len(measureNames)]
}

// uniqueName disambiguates duplicate column names within one table.
func uniqueNames(specs []colSpec) {
	seen := map[string]int{}
	for i := range specs {
		n := specs[i].info.Name
		seen[n]++
		if seen[n] > 1 {
			specs[i].info.Name = fmt.Sprintf("%s_%d", n, seen[n])
		}
	}
}

// subset returns a view of the pool restricted to a random subset of
// its entities, modelling that different publishers cover different
// slices of a domain (one dataset's species differ from another's).
// Roughly a third of tables use the full pool, which is what makes
// high-overlap accidental joins possible without making every pair of
// fact tables joinable. Temporal pools subset to contiguous ranges.
func (g *generator) subset(pool *entityPool) *entityPool {
	return g.subsetMaybeFull(pool, false)
}

// subsetMaybeFull restricts a pool; with forceProper the result is
// always a proper subset (used by drifting periodic publications).
func (g *generator) subsetMaybeFull(pool *entityPool, forceProper bool) *entityPool {
	n := pool.size()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if forceProper || g.rng.Float64() >= 0.18 { // some publishers cover the full domain
		frac := 0.3 + g.rng.Float64()*0.6
		k := int(frac * float64(n))
		if k < 3 {
			k = 3
		}
		if k < n {
			if pool.name == "year" || pool.name == "date" {
				start := g.rng.Intn(n - k + 1)
				idx = idx[start : start+k]
			} else {
				idx = g.rng.Perm(n)[:k]
				sort.Ints(idx)
			}
		}
	}
	variant := g.spellingVariant(pool)
	sub := &entityPool{name: pool.name, keyName: pool.keyName, attrs: map[string][]string{}}
	for _, i := range idx {
		sub.values = append(sub.values, variant(pool.values[i], i))
	}
	for _, attr := range attrNames(pool) {
		vals := pool.attrs[attr]
		sv := make([]string, 0, len(idx))
		for _, i := range idx {
			// Attribute spellings follow the publisher's convention too.
			sv = append(sv, variant(vals[i], -1))
		}
		sub.attrs[attr] = sv
	}
	return sub
}

// spellingVariant picks the publisher's value-spelling convention for
// a pool: canonical, upper-case, or coded. Conventions are stable
// functions of the original values, so two publishers using the same
// convention still join while publishers with different conventions do
// not — value heterogeneity the paper's value-overlap metric is blind
// to.
func (g *generator) spellingVariant(pool *entityPool) func(v string, origIdx int) string {
	if pool.name == "year" || pool.name == "date" {
		return func(v string, _ int) string { return v }
	}
	r := g.rng.Float64()
	switch {
	case r < 0.62:
		return func(v string, _ int) string { return v }
	case r < 0.82:
		return func(v string, _ int) string { return strings.ToUpper(v) }
	default:
		return func(v string, origIdx int) string {
			if origIdx >= 0 {
				return fmt.Sprintf("%s (%s-%02d)", v, pool.name[:2], origIdx)
			}
			return v + " *"
		}
	}
}

// ---- dataset styles ----

// factPools are the entity chains denormalized tables pre-join.
var factPools = []string{"city", "species", "industry", "fund", "department", "facility"}

// makeDenormalizedDataset publishes one pre-joined table: entity
// chains with their dependent attributes (planted FDs), shared-domain
// columns, and measures.
func (g *generator) makeDenormalizedDataset() {
	topic, category := g.pickTopic()
	ds := g.newDataset(topic, category)
	nRows := g.rowCount()

	var specs []colSpec
	if g.rng.Float64() < g.prof.KeyProb {
		specs = append(specs, g.seqIDSpec("objectid"))
	}
	nChains := 1 + g.rng.Intn(2)
	for i := 0; i < nChains; i++ {
		pool := g.subset(g.pools[factPools[g.rng.Intn(len(factPools))]])
		specs = append(specs, g.fkSpecPartial(pool, RoleForeignKey)...)
	}
	if g.rng.Float64() < g.prof.DomainColProb {
		specs = append(specs, g.domainSpec(g.subset(g.pools[g.prof.StatePool])))
	}
	if g.rng.Float64() < g.prof.DomainColProb {
		specs = append(specs, g.domainSpec(g.subset(g.pools["year"])))
	}
	if nRows >= 400 && g.rng.Float64() < g.prof.CodeColProb {
		specs = append(specs, g.domainSpec(g.pools["code"]))
	}
	target := g.colTarget()
	for i := 0; len(specs) < target; i++ {
		specs = append(specs, g.measureSpec(g.measureName(i)))
	}
	if g.rng.Float64() < 0.2 {
		specs = append(specs, g.freeTextSpec("description", topic))
	}
	uniqueNames(specs)
	g.materialize(ds, topic, StyleDenormalized, "", g.fileName(topic, ""), nRows, specs)
}

// measureCount draws how many measure columns a fact table gets,
// scaled to the portal's typical table width.
func (g *generator) measureCount() int {
	m := g.prof.MedianCols - 4
	if m < 2 {
		m = 2
	}
	return 2 + g.rng.Intn(m)
}

// colTarget draws a column count around the portal median.
func (g *generator) colTarget() int {
	m := g.prof.MedianCols
	n := int(float64(m) * math.Exp(g.rng.NormFloat64()*0.5))
	if n < 3 {
		n = 3
	}
	if n > 45 {
		n = 45
	}
	return n
}

func (g *generator) fileName(topic, suffix string) string {
	base := ""
	for _, r := range topic {
		if r == ' ' {
			base += "-"
		} else {
			base += string(r)
		}
	}
	if suffix != "" {
		base += "-" + suffix
	}
	return fmt.Sprintf("%s-%d.csv", base, g.tblCounter+1)
}

// makeSemiNormalizedDataset publishes a master entity table plus
// aspect and transaction tables, the pattern behind useful
// intra-dataset joins.
func (g *generator) makeSemiNormalizedDataset() {
	topic, category := g.pickTopic()
	ds := g.newDataset(topic, category)
	pool := g.subset(g.pools[factPools[g.rng.Intn(len(factPools))]])

	// Master: one row per entity; the entity key is a key column.
	master := []colSpec{{
		info: ColumnInfo{Name: pool.keyName, Role: RoleEntityKey, Pool: pool.name},
		gen:  func(r int) string { return pool.values[r] },
	}}
	for _, attrName := range attrNames(pool) {
		vals := pool.attrs[attrName]
		master = append(master, colSpec{
			info: ColumnInfo{Name: attrName, Role: RoleEntityAttr, Pool: pool.name},
			gen:  func(r int) string { return vals[r] },
		})
	}
	master = append(master, g.measureSpec("registered_"+g.measureName(0)))
	uniqueNames(master)
	g.materialize(ds, topic, StyleMaster, "", g.fileName(topic, "master"), pool.size(), master)

	// Aspect tables: also one row per entity, different measures
	// (key-key joins with the master are useful).
	nAspects := 1 + g.rng.Intn(2)
	for a := 0; a < nAspects; a++ {
		aspect := []colSpec{{
			info: ColumnInfo{Name: pool.keyName, Role: RoleEntityKey, Pool: pool.name},
			gen:  func(r int) string { return pool.values[r] },
		}}
		nm := g.measureCount()
		for i := 0; i < nm; i++ {
			aspect = append(aspect, g.measureSpec(g.measureName(a*3+i)))
		}
		uniqueNames(aspect)
		g.materialize(ds, topic, StyleAspect, "", g.fileName(topic, fmt.Sprintf("aspect%d", a+1)), pool.size(), aspect)
	}

	// Transactions: foreign key to the entity plus measures
	// (key-nonkey joins with the master are useful).
	nTx := 1 + g.rng.Intn(2)
	for x := 0; x < nTx; x++ {
		nRows := g.rowCount()
		tx := []colSpec{}
		if g.rng.Float64() < g.prof.KeyProb {
			tx = append(tx, g.seqIDSpec("record_id"))
		}
		tx = append(tx, g.fkSpecPartial(pool, RoleForeignKey)...)
		if g.rng.Float64() < g.prof.DomainColProb {
			tx = append(tx, g.domainSpec(g.subset(g.pools["year"])))
		}
		nm := 1 + g.measureCount()
		for i := 0; i < nm; i++ {
			tx = append(tx, g.measureSpec(g.measureName(x*2+i)))
		}
		uniqueNames(tx)
		g.materialize(ds, topic, StyleTransactions, "", g.fileName(topic, fmt.Sprintf("records%d", x+1)), nRows, tx)
	}
}

// makePeriodicDataset publishes one schema across several periods: the
// dominant unionable pattern.
func (g *generator) makePeriodicDataset() {
	topic, category := g.pickTopic()
	ds := g.newDataset(topic, category)

	k := g.prof.PeriodicMin + g.rng.Intn(g.prof.PeriodicMax-g.prof.PeriodicMin+1)
	nRows := g.rowCount()
	hasID := g.rng.Float64() < 0.65
	basePool := g.pools[factPools[g.rng.Intn(len(factPools))]]
	pool := g.subset(basePool)
	// Half of periodic publications keep stable entity coverage and
	// sizes (their periods join on the shared columns); the other half
	// drift year over year, so the same schema no longer implies high
	// value overlap.
	drifting := g.rng.Float64() < g.prof.PeriodicDriftProb
	hasRefPeriod := g.rng.Float64() < 0.5
	nMeasures := g.measureCount()
	measureSeeds := g.rng.Int63()
	measureBase := g.rng.Intn(40) * 750

	// One null plan for the whole dataset: periodic publications keep a
	// consistent null pattern, which also preserves schema identity for
	// the unionability analysis.
	g.nullPlan = g.rollNullPlan(3 + nMeasures)
	defer func() { g.nullPlan = nil }()

	startYear := 2005 + g.rng.Intn(10)
	idSpec := g.seqIDSpec("row_id")
	for p := 0; p < k; p++ {
		year := startYear + p
		periodRows := nRows
		periodPool := pool
		if drifting {
			periodRows = nRows * (50 + g.rng.Intn(90)) / 100
			periodPool = g.subsetMaybeFull(basePool, true)
		} else {
			// Even stable publications vary a little year over year.
			periodRows = nRows * (95 + g.rng.Intn(11)) / 100
		}
		if periodRows < 10 {
			periodRows = 10
		}
		var specs []colSpec
		if hasID {
			if drifting {
				// Drifting exports restart from fresh id offsets, so the
				// id columns of different periods do not overlap.
				specs = append(specs, g.seqIDSpec("row_id"))
			} else {
				specs = append(specs, idSpec)
			}
		}
		specs = append(specs, g.fkSpec(periodPool, RoleForeignKey)...)
		if hasRefPeriod {
			y := fmt.Sprintf("%d", year)
			specs = append(specs, colSpec{
				info: ColumnInfo{Name: "ref_period", Role: RoleDomain, Pool: "year"},
				gen:  func(r int) string { return y },
			})
		}
		// Same measure shapes across periods so schemas stay identical.
		mrng := rand.New(rand.NewSource(measureSeeds + int64(p)))
		for i := 0; i < nMeasures; i++ {
			name := measureNames[i%len(measureNames)]
			limit := 100 + (i+1)*137
			specs = append(specs, colSpec{
				info: ColumnInfo{Name: name, Role: RoleMeasure},
				gen:  func(r int) string { return fmt.Sprintf("%d", measureBase+mrng.Intn(limit)) },
			})
		}
		uniqueNames(specs)
		g.materialize(ds, topic, StylePeriodic, "", g.fileName(topic, fmt.Sprintf("%d", year)), periodRows, specs)
	}
}

// makeStandardizedDataset publishes SG's {level_1, level_2, year,
// value} schema with topic-specific level vocabularies.
func (g *generator) makeStandardizedDataset() {
	topic, category := g.pickTopic()
	ds := g.newDataset(topic, category)

	nL1 := 2 + g.rng.Intn(3)
	nL2 := 6 + g.rng.Intn(8)
	l1 := make([]string, nL1)
	for i := range l1 {
		l1[i] = fmt.Sprintf("%s group %c", topic, 'A'+i)
	}
	l2 := make([]string, nL2)
	l2parent := make([]string, nL2)
	for i := range l2 {
		l2[i] = fmt.Sprintf("%s subgroup %d", topic, i+1)
		l2parent[i] = l1[i%nL1]
	}

	twoLevels := g.rng.Float64() < 0.4
	// Half of the standardized tables span the portal's full reference
	// period, so their year columns overlap almost perfectly — SG's
	// signature accidental-join pattern.
	yearFrom, yearTo := 2000, 2022
	if g.rng.Float64() < 0.5 {
		yearFrom = 2000 + g.rng.Intn(12)
		yearTo = 2012 + g.rng.Intn(11)
	}
	nYears := yearTo - yearFrom + 1
	nRows := nL2 * nYears

	// Standardized datasets often publish a second table of the same
	// shape (another statistic over the same breakdown).
	nTables := 1
	if g.rng.Float64() < 0.4 {
		nTables = 2
	}
	rng := g.rng
	for k := 0; k < nTables; k++ {
		var specs []colSpec
		specs = append(specs, colSpec{
			info: ColumnInfo{Name: "level_1", Role: RoleLevel},
			gen:  func(r int) string { return l2parent[r%nL2] },
		})
		if twoLevels {
			specs = append(specs, colSpec{
				info: ColumnInfo{Name: "level_2", Role: RoleLevel},
				gen:  func(r int) string { return l2[r%nL2] },
			})
		}
		specs = append(specs, colSpec{
			info: ColumnInfo{Name: "year", Role: RoleDomain, Pool: "year"},
			gen:  func(r int) string { return fmt.Sprintf("%d", yearFrom+r/nL2) },
		})
		specs = append(specs, colSpec{
			info: ColumnInfo{Name: "value", Role: RoleMeasure},
			gen:  func(r int) string { return fmt.Sprintf("%.1f", float64(rng.Intn(600))/2) },
		})
		g.materialize(ds, topic, StyleStandardized, "", g.fileName(topic, fmt.Sprintf("t%d", k+1)), nRows, specs)
	}
}

// makeEventStatsDataset publishes one table of daily statistics keyed
// by date for an event class; several datasets share each class, so
// their date keys join usefully across datasets (Anecdote 2).
func (g *generator) makeEventStatsDataset() {
	event := g.eventNames[g.eventIdx%len(g.eventNames)]
	g.eventIdx++
	aspects := []string{"testing", "cases", "hospitalizations", "responses", "readings"}
	aspect := aspects[g.rng.Intn(len(aspects))]
	topic := event + " " + aspect
	category := "health"
	if event == "road safety" {
		category = "transport"
	} else if event == "energy demand" {
		category = "energy"
	} else if event == "air quality alerts" {
		category = "environment"
	}
	ds := g.newDataset(topic, category)

	dates := g.eventDates[event]
	var specs []colSpec
	specs = append(specs, colSpec{
		info: ColumnInfo{Name: "date", Role: RoleDateKey, Pool: "event:" + event},
		gen:  func(r int) string { return dates[r] },
	})
	nm := 3 + g.rng.Intn(5)
	for i := 0; i < nm; i++ {
		specs = append(specs, g.measureSpec(g.measureName(i)))
	}
	if g.rng.Float64() < 0.3 {
		specs = append(specs, g.domainSpec(g.subset(g.pools[g.prof.StatePool])))
	}
	uniqueNames(specs)
	g.materialize(ds, topic, StyleEventStats, event, g.fileName(topic, "daily"), len(dates), specs)
}

// makePartitionedDataset publishes statistics partitioned over a
// categorical attribute, with Total/Other aggregate rows that make the
// partition column a non-key (Anecdote 3: useful nonkey-nonkey joins
// with expansion slightly above 1).
func (g *generator) makePartitionedDataset() {
	topic, category := "fish landings", "fisheries"
	if g.rng.Float64() < 0.4 {
		topic, category = g.pickTopic()
	}
	ds := g.newDataset(topic, category)
	pool := g.subset(g.pools["species"])

	k := 2 + g.rng.Intn(3) // partitions (e.g. years or coasts)
	nm := 2 + g.rng.Intn(2)
	g.nullPlan = g.rollNullPlan(1 + nm)
	defer func() { g.nullPlan = nil }()
	for p := 0; p < k; p++ {
		n := pool.size()
		nRows := n + 7 // + 4 Total + 3 Other rows
		rng := g.rng
		var specs []colSpec
		specs = append(specs, colSpec{
			info: ColumnInfo{Name: pool.keyName, Role: RolePartitionKey, Pool: pool.name},
			gen: func(r int) string {
				switch {
				case r < n:
					return pool.values[r]
				case r < n+4:
					return "Total"
				default:
					return "Other"
				}
			},
		})
		for i := 0; i < nm; i++ {
			limit := 5000 + rng.Intn(20000)
			specs = append(specs, colSpec{
				info: ColumnInfo{Name: measureNames[i%len(measureNames)], Role: RoleMeasure},
				gen:  func(r int) string { return fmt.Sprintf("%d", rng.Intn(limit)) },
			})
		}
		uniqueNames(specs)
		g.materialize(ds, topic, StylePartitioned, "", g.fileName(topic, fmt.Sprintf("part%d", p+1)), nRows, specs)
	}
}

// makeDuplicateDataset republishes a previously generated table under
// a new dataset (the US accidental-union pattern). Falls back to a
// denormalized dataset when nothing exists yet.
func (g *generator) makeDuplicateDataset() {
	if len(g.corpus.Metas) == 0 {
		g.makeDenormalizedDataset()
		return
	}
	src := g.corpus.Metas[g.rng.Intn(len(g.corpus.Metas))]
	ds := g.newDataset(src.Topic, src.Category)
	g.tblCounter++
	// Tables are immutable, so the duplicate shares its source's cells.
	cells := make([][]string, src.Table.NumCols())
	for c := range cells {
		cells[c] = src.Table.Column(c)
	}
	t := table.New(src.Table.Name, src.Table.Cols, cells)
	t.DatasetID = ds.ID
	meta := &TableMeta{
		Table:        t,
		Dataset:      ds.ID,
		DatasetTitle: ds.Title,
		Topic:        src.Topic,
		Category:     src.Category,
		Style:        StyleDuplicate,
		EventClass:   src.EventClass,
		DuplicateOf:  src.Table.Name,
		Published:    ds.Published,
		Cols:         append([]ColumnInfo(nil), src.Cols...),
		RawSize:      src.RawSize,
	}
	g.corpus.Metas = append(g.corpus.Metas, meta)
}
