package query

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"ogdp/internal/corpus"
	"ogdp/internal/fd"
	"ogdp/internal/keys"
	"ogdp/internal/obs"
	"ogdp/internal/parallel"
	"ogdp/internal/rank"
	"ogdp/internal/search"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// Error sentinels the HTTP layer maps to status codes.
var (
	// ErrNotFound marks a query naming a table the corpus lacks.
	ErrNotFound = errors.New("not found")
	// ErrBadRequest marks a malformed query (unknown kind, missing or
	// ineligible column).
	ErrBadRequest = errors.New("bad request")
)

// Query kinds.
const (
	KindJoin    = "join"
	KindUnion   = "union"
	KindProfile = "profile"
	KindFD      = "fd"
	KindRank    = "rank"
)

// Request is one normalized query. The zero values of the optional
// fields select defaults (Normalize pins them), so a Request's Key is
// canonical: two spellings of the same question share a cache slot.
type Request struct {
	// Kind is one of the Kind constants.
	Kind string
	// Table is the query table's file name within the corpus.
	Table string
	// Col is the join query column ("" = first join-eligible column).
	Col string
	// K bounds join/union result lists (0 = DefaultK).
	K int
	// MaxLHS bounds FD discovery (0 = fd.MaxLHS).
	MaxLHS int
}

// DefaultK is the result-list bound when a request does not set one.
const DefaultK = 5

// Normalize pins the request's defaulted fields and drops the fields
// its kind ignores, so Key collapses equivalent spellings.
func (r Request) Normalize() Request {
	r.Kind = strings.ToLower(strings.TrimSpace(r.Kind))
	r.Table = strings.TrimSpace(r.Table)
	r.Col = strings.TrimSpace(r.Col)
	if r.K <= 0 {
		r.K = DefaultK
	}
	if r.MaxLHS <= 0 || r.MaxLHS > fd.MaxLHS {
		r.MaxLHS = fd.MaxLHS
	}
	switch r.Kind {
	case KindJoin:
		r.MaxLHS = 0
	case KindUnion:
		r.Col, r.MaxLHS = "", 0
	case KindProfile:
		r.Col, r.K, r.MaxLHS = "", 0, 0
	case KindFD:
		r.Col, r.K = "", 0
	case KindRank:
		r.Col, r.MaxLHS = "", 0
	}
	return r
}

// Key is the canonical cache key of the normalized request. The
// result cache keys on (corpus hash, Key), so the spelling here is
// load-bearing: it must identify the query and nothing else.
func (r Request) Key() string {
	r = r.Normalize()
	return fmt.Sprintf("%s?col=%s&k=%d&lhs=%d&table=%s", r.Kind, r.Col, r.K, r.MaxLHS, r.Table)
}

// TableInfo describes one corpus table for discovery surfaces
// (the /tables endpoint, the load generator's query pool).
type TableInfo struct {
	Name string   `json:"name"`
	Rows int      `json:"rows"`
	Cols []string `json:"cols"`
}

// Options configures Service construction and per-request fan-outs.
type Options struct {
	// Workers bounds every parallel fan-out (0 = all CPUs).
	Workers int
	// Registry receives the search engine's index-coverage and
	// candidate/verification counters (nil disables them).
	Registry *obs.Registry
}

// Service answers queries over one loaded corpus. The corpus is
// immutable between explicit patches: ApplyDelta (delta.go) revises it
// in place during a quiesced maintenance window; at all other times
// every method is safe for concurrent use.
type Service struct {
	src     corpus.Source
	tables  []*table.Table
	byName  map[string]int
	cats    map[string]string // dataset id -> category, for delta metas
	eng     *search.Engine
	ua      *union.Analysis
	hash    uint64
	workers int
}

// New builds the query service: profiles every column (fanned out
// over the worker pool), indexes the join-eligible columns, groups
// the unionable schemas, and fingerprints the corpus content. The
// source must be immutable afterwards; all Service methods are then
// safe for concurrent use.
func New(src corpus.Source, opts Options) *Service {
	s := &Service{
		src:     src,
		tables:  corpus.Tables(src),
		byName:  make(map[string]int),
		workers: opts.Workers,
	}
	for i, t := range s.tables {
		if _, dup := s.byName[t.Name]; !dup {
			s.byName[t.Name] = i
		}
	}
	// Precompute profiles (and with them the dictionary encodings)
	// before anything else: the engine build, the content hash, and
	// every query below read them lock-free once published.
	parallel.Must(parallel.ForEach(parallel.WithPool(context.Background(), "query-profile"),
		len(s.tables), s.workers, func(i int) {
			s.tables[i].Profiles()
		}))
	s.cats = datasetCategories(src)
	s.eng = search.New(s.tables, search.Options{
		Meta:     searchMetas(src, s.cats),
		Registry: opts.Registry,
	})
	s.ua = union.Find(s.tables)
	s.hash = contentHash(src.PortalID(), s.tables)
	return s
}

// datasetCategories maps dataset ids to their subject categories.
func datasetCategories(src corpus.Source) map[string]string {
	cat := make(map[string]string)
	for _, d := range src.DatasetMetas() {
		cat[d.ID] = d.Category
	}
	return cat
}

// searchMetas projects the source's dataset metadata into the search
// engine's per-table metadata signals (dataset identity plus the
// dataset's subject category).
func searchMetas(src corpus.Source, cat map[string]string) []search.TableMeta {
	metas := src.TableMetas()
	out := make([]search.TableMeta, len(metas))
	for i, m := range metas {
		out[i] = search.TableMeta{DatasetID: m.DatasetID, Category: cat[m.DatasetID]}
	}
	return out
}

// contentHash fingerprints the corpus: portal id, table names,
// schemas, and every column's distinct-value hashes with their
// multiplicities. Two corpora with the same hash answer every query
// identically, which is what lets cached results survive a server
// restart onto the same corpus and die with a changed one.
//
// The combination is an XOR of per-table terms (each avalanche-mixed so
// XOR does not cancel structure), which makes the fingerprint
// order-independent and incrementally patchable: ApplyDelta XORs out
// the terms of removed revisions and XORs in their replacements, and
// lands on exactly the hash a from-scratch build over the patched
// corpus computes. Only the column encodings are read, so hashing an
// mmap-backed corpus touches no row data.
func contentHash(portalID string, tables []*table.Table) uint64 {
	h := mix64(strHash(portalID))
	for _, t := range tables {
		h ^= tableTermOf(t)
	}
	return h
}

// tableTerm is one table's contribution to the corpus content hash:
// an FNV digest of its name, column names, and every column's
// distinct-value hashes with multiplicities, finalized through mix64
// so the XOR combination in contentHash keeps full avalanche.
func tableTerm(name string, cols []string, encs []*table.Encoding) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeStr(name)
	for _, c := range cols {
		writeStr(c)
	}
	for _, e := range encs {
		counts := e.ValueHashCounts()
		for i, v := range e.ValueHashes() {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(counts[i]))
			h.Write(buf[:])
		}
	}
	return mix64(h.Sum64())
}

// tableTermOf is tableTerm over a table's own lazy encodings.
func tableTermOf(t *table.Table) uint64 {
	encs := make([]*table.Encoding, t.NumCols())
	for c := range encs {
		encs[c] = t.Encoding(c)
	}
	return tableTerm(t.Name, t.Cols, encs)
}

// strHash is FNV-64a of a string.
func strHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche mix,
// so that XOR-combining per-table terms never cancels shared structure
// between similar tables.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns the corpus content fingerprint.
func (s *Service) Hash() uint64 { return s.hash }

// HashString is Hash in the fixed 16-hex-digit spelling used in cache
// keys, response headers, and logs.
func (s *Service) HashString() string { return fmt.Sprintf("%016x", s.hash) }

// NumTables returns the corpus size (deleted-table placeholders left
// behind by ApplyDelta are not counted).
func (s *Service) NumTables() int {
	n := 0
	for _, t := range s.tables {
		if t.NumCols() > 0 {
			n++
		}
	}
	return n
}

// NumIndexed returns how many join-eligible columns the engine
// indexed.
func (s *Service) NumIndexed() int { return s.eng.NumIndexed() }

// IndexSkips reports the search engine's index-coverage ledger: how
// many corpus columns the index build passed over, by reason.
func (s *Service) IndexSkips() search.SkipStats { return s.eng.Skips() }

// PortalID names the served corpus.
func (s *Service) PortalID() string { return s.src.PortalID() }

// Tables lists the corpus tables in canonical order. Slots deleted by
// ApplyDelta (placeholder tables with no columns) are omitted.
func (s *Service) Tables() []TableInfo {
	out := make([]TableInfo, 0, len(s.tables))
	for _, t := range s.tables {
		if t.NumCols() == 0 {
			continue
		}
		out = append(out, TableInfo{Name: t.Name, Rows: t.NumRows(), Cols: append([]string(nil), t.Cols...)})
	}
	return out
}

// TableIndex returns the index of the named table, or -1.
func (s *Service) TableIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// pickColumn resolves the join query column: the named column, or the
// first join-eligible one when name is empty (the ogdpsearch rule).
func (s *Service) pickColumn(ti int, name string) (int, error) {
	t := s.tables[ti]
	if name != "" {
		ci := t.ColumnIndex(name)
		if ci < 0 {
			return -1, fmt.Errorf("%w: column %q not in table %s", ErrBadRequest, name, t.Name)
		}
		return ci, nil
	}
	for c := range t.Cols {
		if t.Profile(c).Distinct >= search.MinUniqueDefault {
			return c, nil
		}
	}
	return -1, fmt.Errorf("%w: no join-eligible column in table %s (need >= %d distinct values)",
		ErrBadRequest, t.Name, search.MinUniqueDefault)
}

// Do executes a normalized request and returns the rendered response
// body. Concurrent calls are safe; ctx bounds the per-request
// fan-outs.
func (s *Service) Do(ctx context.Context, req Request) (string, error) {
	req = req.Normalize()
	ti := s.TableIndex(req.Table)
	if ti < 0 {
		return "", fmt.Errorf("%w: table %q not in corpus %s", ErrNotFound, req.Table, s.src.PortalID())
	}
	switch req.Kind {
	case KindJoin:
		ci, err := s.pickColumn(ti, req.Col)
		if err != nil {
			return "", err
		}
		return s.headerText(ti, ci) + "\n" + s.joinText(ti, ci, req.K), nil
	case KindUnion:
		return s.unionText(ti, req.K), nil
	case KindProfile:
		return s.ProfileText(ctx, ti)
	case KindFD:
		return s.FDText(ctx, ti, req.MaxLHS)
	case KindRank:
		return s.rankText(ti, req.K), nil
	default:
		return "", fmt.Errorf("%w: unknown query kind %q", ErrBadRequest, req.Kind)
	}
}

// headerText renders the query-identification line ogdpsearch prints
// before its result sections.
func (s *Service) headerText(ti, ci int) string {
	t := s.tables[ti]
	return fmt.Sprintf("query: %s.%s (%d distinct values)\n", t.Name, t.Cols[ci], t.Profile(ci).Distinct)
}

// joinText renders the top-k joinable columns of the query column by
// exact value overlap — JOSIE's semantics, byte-identical to the
// ogdpsearch join section.
func (s *Service) joinText(ti, ci, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "top-%d joinable columns by exact overlap (JOSIE semantics):\n", k)
	for _, r := range s.eng.TopKJoinable(s.tables[ti], ci, k, ti) {
		c := s.tables[r.Ref.Table]
		fmt.Fprintf(&b, "  overlap=%-5d J=%.3f containment=%.3f  %s.%s\n",
			r.Overlap, r.Jaccard, r.Containment, c.Name, c.Cols[r.Ref.Column])
	}
	return b.String()
}

// rankText renders the top-k ranked integration hypotheses for the
// query table — value overlap, schema similarity, and dataset
// metadata combined into one weighted score (Eberius et al.'s
// integration hypotheses), byte-identical to the ogdpsearch
// -mode rank output.
func (s *Service) rankText(ti, k int) string {
	q := s.tables[ti]
	var b strings.Builder
	fmt.Fprintf(&b, "top-%d integration hypotheses for %s (value+schema+metadata evidence):\n", k, q.Name)
	hs := s.eng.RankTables(q, k, ti)
	if len(hs) == 0 {
		b.WriteString("  none\n")
	}
	for _, h := range hs {
		c := s.tables[h.Table]
		fmt.Fprintf(&b, "  score=%.3f  %s", h.Score, c.Name)
		if h.QueryCol >= 0 {
			fmt.Fprintf(&b, "  join %s~%s overlap=%d containment=%.3f",
				q.Cols[h.QueryCol], c.Cols[h.CandCol], h.Overlap, h.Containment)
		}
		if h.SameSchema {
			b.WriteString("  union-compatible")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// unionText renders the tables unionable with the query table (exact
// schema identity), ranked by relatedness — byte-identical to the
// ogdpsearch union section.
func (s *Service) unionText(ti, k int) string {
	var b strings.Builder
	b.WriteString("unionable tables (exact schema identity), ranked by relatedness:\n")
	ranked := rank.RankUnionCandidates(s.ua, ti, rank.UnionWeights{})
	if len(ranked) == 0 {
		b.WriteString("  none\n")
	}
	for i, r := range ranked {
		if i == k {
			break
		}
		fmt.Fprintf(&b, "  score=%.2f  %s\n", r.Score, s.tables[r.Table].Name)
	}
	return b.String()
}

// ProfileText renders the per-column profile of one table: type,
// distinct count, null ratio, uniqueness, and key flag per column,
// plus the single-column key list. Column stats are computed in a
// request-scoped fan-out bounded by ctx.
func (s *Service) ProfileText(ctx context.Context, ti int) (string, error) {
	t := s.tables[ti]
	lines := make([]string, t.NumCols())
	nameW := 0
	for _, c := range t.Cols {
		if len(c) > nameW {
			nameW = len(c)
		}
	}
	if err := parallel.ForEach(parallel.WithPool(ctx, "query-profile-render"),
		t.NumCols(), s.workers, func(c int) {
			p := t.Profile(c)
			key := ""
			if p.IsKey() {
				key = "  key"
			}
			lines[c] = fmt.Sprintf("  [%d] %-*s  %-8s distinct=%-6d nulls=%.1f%%  unique=%.3f%s",
				c, nameW, t.Cols[c], p.Type, p.Distinct, 100*p.NullRatio(), p.Uniqueness(), key)
		}); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "table: %s (%d rows × %d columns)\n", t.Name, t.NumRows(), t.NumCols())
	if t.DatasetID != "" {
		fmt.Fprintf(&b, "dataset: %s\n", t.DatasetID)
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	kc := keys.KeyColumns(t)
	if len(kc) == 0 {
		b.WriteString("single-column keys: none\n")
	} else {
		names := make([]string, len(kc))
		for i, c := range kc {
			names[i] = t.Cols[c]
		}
		fmt.Fprintf(&b, "single-column keys: %s\n", strings.Join(names, ", "))
	}
	return b.String(), nil
}

// FDText renders the table's minimal functional dependencies (bounded
// at maxLHS) with their plausibility scores. The discovery's lattice
// already holds each FD's support, card(LHS), so scoring counts
// nothing more. ctx is checked once discovery is done.
func (s *Service) FDText(ctx context.Context, ti, maxLHS int) (string, error) {
	t := s.tables[ti]
	if t.NumCols() > fd.MaxColumns {
		return "", fmt.Errorf("%w: table %s has %d columns; FD discovery accepts at most %d",
			ErrBadRequest, t.Name, t.NumCols(), fd.MaxColumns)
	}
	lat := fd.NewLattice(t)
	fds, _ := lat.Discover(maxLHS)
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("fd %s: %w", t.Name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "functional dependencies of %s (max LHS %d): %d minimal FDs\n", t.Name, maxLHS, len(fds))
	for _, f := range fds {
		fmt.Fprintf(&b, "  %s   (plausibility %.2f)\n", f.Format(t), fd.PlausibilityOf(t, f, lat.Card(f.LHS)))
	}
	return b.String(), nil
}

// Kinds names the supported query kinds, for flag help and error
// text.
func Kinds() string {
	return strings.Join([]string{KindJoin, KindUnion, KindProfile, KindFD, KindRank}, ", ")
}
