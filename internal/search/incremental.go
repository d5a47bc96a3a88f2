package search

import "ogdp/internal/table"

// Incremental index maintenance. A corpus snapshot rarely changes
// wholesale: the ingest path observes a handful of added, updated, and
// deleted tables and patches the engine in place instead of rebuilding
// the postings for every unchanged column. The operations preserve the
// engine's determinism contract:
//
//   - Column ids grow monotonically and are never reused, so posting
//     lists stay in ascending id order (removal splices, insertion
//     appends fresh maximal ids).
//   - A removed table's slot is replaced by an empty placeholder table
//     rather than compacted away, so surviving table indices (the
//     tie-break key of every ranked result order) keep their relative
//     order, which is exactly the order a from-scratch rebuild of the
//     patched corpus produces.
//   - The skip ledger is reverted for the removed table's gated columns
//     and re-accumulated for its replacement, so Skips always describes
//     the current corpus, not the build history.
//
// None of these methods are safe for use concurrent with queries:
// callers quiesce the engine (or swap a fresh Service) around a patch.

// indexTableColumns runs the build-loop gates over every column of
// tables[ti], appending eligible ones to the index.
func (e *Engine) indexTableColumns(ti int) {
	t := e.tables[ti]
	for ci := range t.Cols {
		p := t.Profile(ci)
		// An empty column is "no values" regardless of the gate; the
		// ledger must not blame the distinct-value bar for it.
		if p.Distinct == 0 {
			e.skips.Empty++
			continue
		}
		if p.Distinct < MinUniqueDefault {
			e.skips.MinUnique++
			continue
		}
		id := int32(len(e.columns))
		e.columns = append(e.columns, ColumnRef{Table: ti, Column: ci})
		e.distinct = append(e.distinct, p.Distinct)
		e.profiles = append(e.profiles, p)
		// The profile's hash set is already sorted, so posting lists
		// fill in ascending column-id order with ascending hashes.
		for _, h := range p.ValueHashes() {
			e.postings[h] = append(e.postings[h], id)
		}
	}
}

// unindex removes one indexed column: its id is spliced out of every
// posting list it appears in (preserving ascending order) and its
// profile slot is tombstoned.
func (e *Engine) unindex(id int32) {
	p := e.profiles[id]
	for _, h := range p.ValueHashes() {
		ids := e.postings[h]
		for k, v := range ids {
			if v == id {
				ids = append(ids[:k], ids[k+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(e.postings, h)
		} else {
			e.postings[h] = ids
		}
	}
	e.profiles[id] = nil
	e.distinct[id] = 0
}

// RemoveTable deletes the table at index ti from the engine: its
// columns leave the postings, its skip-ledger
// contributions are reverted, and the slot is replaced by an empty
// placeholder (same name, no columns) so surviving table indices are
// undisturbed. Removing an already-removed slot is a no-op.
func (e *Engine) RemoveTable(ti int) {
	old := e.tables[ti]
	for ci := range old.Cols {
		p := old.Profile(ci)
		if p.Distinct == 0 {
			e.skips.Empty--
		} else if p.Distinct < MinUniqueDefault {
			e.skips.MinUnique--
		}
	}
	for id := range e.columns {
		if e.columns[id].Table == ti && e.profiles[id] != nil {
			e.unindex(int32(id))
		}
	}
	e.tables[ti] = table.New(old.Name, nil, nil)
	if e.meta != nil && ti < len(e.meta) {
		e.meta[ti] = TableMeta{}
	}
}

// AddTable appends a table to the engine and indexes its eligible
// columns, returning the new table index. The new columns receive
// fresh maximal ids, so every existing posting list is untouched.
func (e *Engine) AddTable(t *table.Table, meta TableMeta) int {
	ti := len(e.tables)
	e.tables = append(e.tables, t)
	e.setMeta(ti, meta)
	e.indexTableColumns(ti)
	return ti
}

// UpdateTable replaces the table at index ti with a new revision:
// the old columns are removed exactly as RemoveTable does, then the
// revision is indexed in the same slot (preserving its position in
// every table-index tie-break) under fresh column ids.
func (e *Engine) UpdateTable(ti int, t *table.Table, meta TableMeta) {
	e.RemoveTable(ti)
	e.tables[ti] = t
	e.setMeta(ti, meta)
	e.indexTableColumns(ti)
}

// setMeta records per-table metadata at slot ti, materializing the
// metadata slice on first use and padding it to the table count.
func (e *Engine) setMeta(ti int, m TableMeta) {
	if e.meta == nil {
		if m == (TableMeta{}) {
			return
		}
		e.meta = make([]TableMeta, 0, len(e.tables))
	}
	for len(e.meta) < len(e.tables) {
		e.meta = append(e.meta, TableMeta{})
	}
	e.meta[ti] = m
}
