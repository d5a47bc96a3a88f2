// Package ckan models an open government data portal the way CKAN
// (the content management system behind data.gov, open.canada.ca and
// data.gov.uk) does: a portal is a set of datasets, each dataset holds
// resource files. The package also provides a CKAN-compatible HTTP API
// server and a fetch client that reproduces the paper's acquisition
// pipeline (§2.2): metadata listing → download → type sniffing →
// header inference → parsing, yielding the downloadable/readable
// funnel reported in Table 1. The client fans requests out over a
// bounded pool with deterministic retries; the server can inject
// transient faults to exercise that machinery.
package ckan

import (
	"strings"
	"time"

	"ogdp/internal/table"
)

// IsCSVFormat reports whether an advertised resource format means CSV,
// tolerating the case and whitespace variants real CKAN metadata
// contains ("CSV", "csv", " Csv ").
func IsCSVFormat(format string) bool {
	return strings.EqualFold(strings.TrimSpace(format), "csv")
}

// MetadataStyle classifies how a dataset documents its columns
// (Table 3 of the paper).
type MetadataStyle int

// Metadata styles, from most to least machine-usable.
const (
	// MetadataLacking: no data dictionary at all.
	MetadataLacking MetadataStyle = iota
	// MetadataStructured: a machine-readable dictionary (CSV/JSON or a
	// consistently formatted webpage, as in SG).
	MetadataStructured
	// MetadataUnstructured: a PDF or free-form page in the portal.
	MetadataUnstructured
	// MetadataOutside: documentation hosted outside the portal.
	MetadataOutside
)

var metadataStyleNames = [...]string{"lacking", "structured", "unstructured", "outside portal"}

func (m MetadataStyle) String() string {
	if int(m) < len(metadataStyleNames) {
		return metadataStyleNames[m]
	}
	return "invalid"
}

// BrokenKind describes how a resource fails the acquisition pipeline,
// mirroring the failure modes the paper observed.
type BrokenKind int

// Resource failure modes.
const (
	// BrokenNone: the resource downloads and parses.
	BrokenNone BrokenKind = iota
	// BrokenNotFound: the download URL returns a non-200 status; the
	// resource is not downloadable.
	BrokenNotFound
	// BrokenHTMLPage: the URL returns 200 but serves an HTML page
	// instead of a CSV; downloadable but not readable.
	BrokenHTMLPage
	// BrokenGarbage: the URL serves binary garbage; downloadable but
	// not readable.
	BrokenGarbage
	// BrokenNoHeader: the CSV has no parsable header row; downloadable
	// but not readable.
	BrokenNoHeader
)

// Portal is one open government data portal.
type Portal struct {
	// Name is the short portal code, e.g. "CA".
	Name string
	// Datasets are the published datasets.
	Datasets []*Dataset
}

// Dataset is a CKAN package: a titled collection of resource files.
type Dataset struct {
	ID          string
	Title       string
	Description string
	// Published is the dataset publication date (drives the growth
	// analysis of Figure 2).
	Published time.Time
	// Metadata records how the dataset documents its columns.
	Metadata MetadataStyle
	// Resources are the dataset's files.
	Resources []*Resource
}

// Resource is one file in a dataset.
type Resource struct {
	ID string
	// Name is the file name, e.g. "awards-2021.csv".
	Name string
	// Format is the advertised (not sniffed) format from the metadata.
	Format string
	// URL is the download path the portal serves the resource under.
	URL string
	// Table, when non-nil, is the resource's content: the server
	// writes it as CSV (csvio.Write) straight into each download
	// response, so the serialized file is never held in memory.
	Table *table.Table
	// Size is the byte length of Table's CSV serialization, declared
	// as the download's Content-Length. Zero means unknown: the
	// server then declares no length up front.
	Size int64
	// Body is the raw file content of a resource without a Table,
	// such as a deliberately malformed file.
	Body []byte
	// Broken describes a deliberate publication defect, if any.
	Broken BrokenKind
}

// NumTables counts resources advertised as CSV across the portal.
func (p *Portal) NumTables() int {
	n := 0
	for _, d := range p.Datasets {
		for _, r := range d.Resources {
			if IsCSVFormat(r.Format) {
				n++
			}
		}
	}
	return n
}

// Resource looks up a resource by ID across all datasets.
func (p *Portal) Resource(id string) *Resource {
	for _, d := range p.Datasets {
		for _, r := range d.Resources {
			if r.ID == id {
				return r
			}
		}
	}
	return nil
}

// Dataset looks up a dataset by ID.
func (p *Portal) Dataset(id string) *Dataset {
	for _, d := range p.Datasets {
		if d.ID == id {
			return d
		}
	}
	return nil
}
