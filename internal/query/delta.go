package query

import (
	"context"
	"fmt"

	"ogdp/internal/corpus"
	"ogdp/internal/parallel"
	"ogdp/internal/search"
	"ogdp/internal/table"
	"ogdp/internal/union"
)

// Delta is an incremental corpus change: a set of added, updated, and
// deleted tables observed between two corpus snapshots. Names are the
// table file names (the corpus's identity key); a name may appear in at
// most one of the three lists.
type Delta struct {
	// Added are tables new to the corpus.
	Added []corpus.TableMeta
	// Updated are revisions of existing tables, matched by Table.Name.
	Updated []corpus.TableMeta
	// Deleted names the tables removed from the corpus.
	Deleted []string
	// Datasets are dataset records referenced by added or updated
	// tables that the corpus had not seen before (their categories feed
	// the ranked-search metadata signal).
	Datasets []corpus.Dataset
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Updated) == 0 && len(d.Deleted) == 0
}

// Counts renders the delta size as "a added, u updated, d deleted".
func (d Delta) Counts() string {
	return fmt.Sprintf("%d added, %d updated, %d deleted", len(d.Added), len(d.Updated), len(d.Deleted))
}

// validate rejects a delta naming tables inconsistently with the
// current corpus before any state is touched, so a failed ApplyDelta
// leaves the service unchanged.
func (s *Service) validateDelta(d Delta) error {
	seen := make(map[string]string, len(d.Added)+len(d.Updated)+len(d.Deleted))
	note := func(name, op string) error {
		if name == "" {
			return fmt.Errorf("%w: delta %s entry with empty table name", ErrBadRequest, op)
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("%w: table %q appears twice in the delta (%s and %s)", ErrBadRequest, name, prev, op)
		}
		seen[name] = op
		return nil
	}
	for _, name := range d.Deleted {
		if err := note(name, "delete"); err != nil {
			return err
		}
		if _, ok := s.byName[name]; !ok {
			return fmt.Errorf("%w: delete %q: not in corpus", ErrBadRequest, name)
		}
	}
	for _, m := range d.Updated {
		if err := note(m.Table.Name, "update"); err != nil {
			return err
		}
		if _, ok := s.byName[m.Table.Name]; !ok {
			return fmt.Errorf("%w: update %q: not in corpus", ErrBadRequest, m.Table.Name)
		}
	}
	for _, m := range d.Added {
		if err := note(m.Table.Name, "add"); err != nil {
			return err
		}
		if _, ok := s.byName[m.Table.Name]; ok {
			return fmt.Errorf("%w: add %q: already in corpus (use an update)", ErrBadRequest, m.Table.Name)
		}
	}
	return nil
}

// ApplyDelta patches the service in place: deleted tables leave the
// search index, updated and added tables are profiled and indexed, and
// the corpus content hash is XOR-patched table by table — work is
// proportional to the changed tables, never the corpus. The patched
// hash equals the hash a from-scratch Service over the patched corpus
// computes, so every result cache keyed on (hash, request) invalidates
// exactly when answers can change.
//
// ApplyDelta is a maintenance-window operation: it must not run
// concurrently with Do or any other Service method. It validates the
// whole delta up front and returns ErrBadRequest-wrapped errors
// without touching state when the delta is inconsistent with the
// current corpus.
func (s *Service) ApplyDelta(d Delta) error {
	if err := s.validateDelta(d); err != nil {
		return err
	}
	// Profile the incoming revisions up front (parallel, like New):
	// indexing and hashing below read the published profiles lock-free.
	incoming := make([]*table.Table, 0, len(d.Added)+len(d.Updated))
	for _, m := range d.Updated {
		incoming = append(incoming, m.Table)
	}
	for _, m := range d.Added {
		incoming = append(incoming, m.Table)
	}
	parallel.Must(parallel.ForEach(parallel.WithPool(context.Background(), "query-delta-profile"),
		len(incoming), s.workers, func(i int) {
			incoming[i].Profiles()
		}))
	for _, ds := range d.Datasets {
		s.cats[ds.ID] = ds.Category
	}

	for _, name := range d.Deleted {
		ti := s.byName[name]
		s.hash ^= tableTermOf(s.tables[ti])
		s.eng.RemoveTable(ti)
		s.tables[ti] = table.New(name, nil, nil)
		delete(s.byName, name)
	}
	for _, m := range d.Updated {
		ti := s.byName[m.Table.Name]
		s.hash ^= tableTermOf(s.tables[ti])
		s.eng.UpdateTable(ti, m.Table, s.deltaMeta(m))
		s.tables[ti] = m.Table
		s.hash ^= tableTermOf(m.Table)
	}
	for _, m := range d.Added {
		ti := s.eng.AddTable(m.Table, s.deltaMeta(m))
		s.tables = append(s.tables, m.Table)
		s.byName[m.Table.Name] = ti
		s.hash ^= tableTermOf(m.Table)
	}
	// Union grouping runs over schema keys only — cheap enough to
	// rebuild outright rather than patch.
	s.ua = union.Find(s.tables)
	return nil
}

// deltaMeta projects one incoming table's corpus metadata into the
// search engine's per-table signal, resolving the dataset category
// through the service's dataset map.
func (s *Service) deltaMeta(m corpus.TableMeta) search.TableMeta {
	return search.TableMeta{DatasetID: m.DatasetID, Category: s.cats[m.DatasetID]}
}
