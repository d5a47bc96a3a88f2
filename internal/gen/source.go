package gen

import (
	"ogdp/internal/ckan"
	"ogdp/internal/corpus"
)

// PortalID implements corpus.Source.
func (c *Corpus) PortalID() string { return c.PortalName }

// TableMetas implements corpus.Source: the generated tables in
// generation order, each carrying its dataset's publication date and
// metadata style.
func (c *Corpus) TableMetas() []corpus.TableMeta {
	metaStyle := make(map[string]int, len(c.Datasets))
	for _, d := range c.Datasets {
		metaStyle[d.ID] = d.Metadata
	}
	out := make([]corpus.TableMeta, len(c.Metas))
	for i, m := range c.Metas {
		out[i] = corpus.TableMeta{
			Table:     m.Table,
			DatasetID: m.Dataset,
			Published: m.Published,
			RawSize:   m.RawSize,
			Metadata:  metaStyle[m.Dataset],
		}
	}
	return out
}

// DatasetMetas implements corpus.Source.
func (c *Corpus) DatasetMetas() []corpus.Dataset {
	out := make([]corpus.Dataset, len(c.Datasets))
	for i, d := range c.Datasets {
		out[i] = corpus.Dataset{
			ID:        d.ID,
			Title:     d.Title,
			Category:  d.Category,
			Published: d.Published,
			Metadata:  d.Metadata,
		}
	}
	return out
}

// ServablePortal is the optional funnel capability core looks for: a
// generated corpus can serialize itself into a servable CKAN portal
// with the profile's broken-resource rates, so the Table 1
// acquisition funnel is measurable over live HTTP.
func (c *Corpus) ServablePortal(seed int64) *ckan.Portal {
	return BuildPortal(c, seed)
}
