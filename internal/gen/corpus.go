// Package gen generates synthetic open-government-data portals whose
// relational structure is calibrated to the four portals the paper
// studies (SG, CA, UK, US). The generator plants exactly the
// publication phenomena the paper measures — denormalized pre-joined
// tables (functional dependencies), semi-normalized datasets (useful
// intra-dataset joins), periodically published tables (unionable
// sets), Singapore's standardized schemas, US duplicate tables,
// sequential-ID columns and shared value domains (accidental joins) —
// and records the provenance of every column, which serves as the
// ground truth standing in for the paper's manual labeling.
package gen

import (
	"time"

	"ogdp/internal/table"
)

// ColumnRole describes why a generated column exists; labeling rules
// are written against roles.
type ColumnRole int

// Column roles.
const (
	// RoleSequentialID: incremental integer identifier (1..n).
	RoleSequentialID ColumnRole = iota
	// RoleEntityKey: natural key of an entity pool, one row per entity.
	RoleEntityKey
	// RoleForeignKey: reference to an entity pool from a fact table
	// (values repeat).
	RoleForeignKey
	// RoleEntityAttr: attribute functionally dependent on an entity key
	// in the same table.
	RoleEntityAttr
	// RoleDomain: a common domain column (state, province, year, date)
	// present in many unrelated tables.
	RoleDomain
	// RoleDateKey: a date column that keys an event-statistics table;
	// joining two event-stats tables of the same event class on their
	// date keys is the paper's useful inter-dataset pattern.
	RoleDateKey
	// RolePartitionKey: the semi-key of a partitioned statistics table
	// (the fisheries pattern: one row per species plus Total/Other
	// aggregate rows).
	RolePartitionKey
	// RoleMeasure: numeric measurement.
	RoleMeasure
	// RoleFreeText: free-form text.
	RoleFreeText
	// RoleLevel: level_1/level_2 columns of SG's standardized schemas.
	RoleLevel
)

var roleNames = [...]string{
	"sequential-id", "entity-key", "foreign-key", "entity-attr",
	"domain", "date-key", "partition-key", "measure", "free-text", "level",
}

func (r ColumnRole) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return "invalid"
}

// TableStyle describes the publication pattern a table was generated
// under.
type TableStyle int

// Table styles.
const (
	// StyleDenormalized: a single pre-joined table with planted FDs.
	StyleDenormalized TableStyle = iota
	// StyleMaster: the entity table of a semi-normalized dataset.
	StyleMaster
	// StyleAspect: a per-entity aspect table of a semi-normalized
	// dataset (keyed by the same entity as the master).
	StyleAspect
	// StyleTransactions: an event/transaction table of a
	// semi-normalized dataset (foreign key to the entity).
	StyleTransactions
	// StylePeriodic: one period of a periodically published table set.
	StylePeriodic
	// StyleStandardized: SG's {level_1, level_2, year, value} schema.
	StyleStandardized
	// StyleEventStats: daily statistics keyed by date for some event
	// class.
	StyleEventStats
	// StylePartitioned: statistics partitioned over a categorical
	// attribute with aggregate (Total/Other) rows.
	StylePartitioned
	// StyleDuplicate: an exact copy of another table republished under
	// a different dataset (the US pattern).
	StyleDuplicate
)

var styleNames = [...]string{
	"denormalized", "master", "aspect", "transactions", "periodic",
	"standardized", "event-stats", "partitioned", "duplicate",
}

func (s TableStyle) String() string {
	if int(s) < len(styleNames) {
		return styleNames[s]
	}
	return "invalid"
}

// ColumnInfo is the provenance of one generated column.
type ColumnInfo struct {
	Name string
	Role ColumnRole
	// Pool names the entity pool the values come from (empty for
	// measures/free text).
	Pool string
}

// TableMeta is one generated table with its provenance.
type TableMeta struct {
	Table *table.Table
	// Dataset and DatasetTitle identify the CKAN dataset.
	Dataset      string
	DatasetTitle string
	// Topic and Category place the table in a subject domain; tables of
	// the same category are "related" in the paper's labeling sense.
	Topic    string
	Category string
	// Style is the publication pattern.
	Style TableStyle
	// EventClass groups event-statistics tables about the same event
	// (e.g. all COVID tables); empty otherwise.
	EventClass string
	// DuplicateOf holds the table name this is a copy of, for
	// StyleDuplicate.
	DuplicateOf string
	// Published is the dataset publication date.
	Published time.Time
	// Cols is per-column provenance, parallel to Table.Cols.
	Cols []ColumnInfo
	// RawSize is the size of the table serialized as CSV, in bytes. A
	// table loaded from a saved corpus carries the size recorded there,
	// which for an ingested snapshot is the size of the snapshot file.
	RawSize int64
	// csvSize is len(csvio.Bytes(Table)) when that is known without
	// serializing (generated tables), else 0.
	csvSize int64
}

// Role returns the provenance of column c.
func (m *TableMeta) Role(c int) ColumnInfo { return m.Cols[c] }

// DatasetMeta describes one generated dataset.
type DatasetMeta struct {
	ID        string
	Title     string
	Category  string
	Published time.Time
	// Metadata is the dictionary style (drives Table 3).
	Metadata int // ckan.MetadataStyle value; int to avoid the dependency here
}

// Corpus is a generated portal: readable tables with provenance plus
// dataset-level metadata.
type Corpus struct {
	// PortalName is the portal code (SG, CA, UK, US).
	PortalName string
	// Profile the corpus was generated from.
	Profile PortalProfile
	// Metas are the readable tables, in generation order.
	Metas []*TableMeta
	// Datasets are the dataset records.
	Datasets []DatasetMeta
}

// Tables projects the corpus to its bare tables, in the same order as
// Metas; analysis indices line up with Metas indices.
func (c *Corpus) Tables() []*table.Table {
	out := make([]*table.Table, len(c.Metas))
	for i, m := range c.Metas {
		out[i] = m.Table
	}
	return out
}

// MetaByTable maps a table index (into Tables()) to its provenance.
func (c *Corpus) MetaByTable(i int) *TableMeta { return c.Metas[i] }
