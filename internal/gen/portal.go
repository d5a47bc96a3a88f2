package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"ogdp/internal/ckan"
)

// csvFormatVariants are the advertised-format spellings real CKAN
// metadata uses for CSV resources; the fetch client must match them
// case-insensitively.
var csvFormatVariants = []string{"CSV", "csv", "Csv", " CSV", "csv "}

// BuildPortal publishes a corpus as a ckan.Portal, adding the
// deliberately broken resources (404s, HTML pages, binary garbage) and
// very wide tables at the profile's rates so a ckan.Client fetching
// the portal observes the paper's downloadable/readable funnel
// (Table 1). Each table becomes a table-backed resource that the
// server serializes per download; only the broken and wide resources
// carry a Body. seed drives the placement of broken resources.
func BuildPortal(c *Corpus, seed int64) *ckan.Portal {
	rng := rand.New(rand.NewSource(seed))
	// Format spellings draw from their own stream so they don't
	// disturb the broken-resource placement of existing seeds.
	frng := rand.New(rand.NewSource(seed ^ 0x43535646))
	format := func() string { return csvFormatVariants[frng.Intn(len(csvFormatVariants))] }
	p := &ckan.Portal{Name: c.PortalName}

	byDataset := make(map[string][]*TableMeta)
	for _, m := range c.Metas {
		byDataset[m.Dataset] = append(byDataset[m.Dataset], m)
	}

	resCounter := 0
	nextID := func() string {
		resCounter++
		return fmt.Sprintf("%s-res-%06d", c.PortalName, resCounter)
	}

	prof := c.Profile
	for _, dm := range c.Datasets {
		d := &ckan.Dataset{
			ID:          dm.ID,
			Title:       dm.Title,
			Description: fmt.Sprintf("%s data published by the %s portal (%s).", dm.Title, c.PortalName, dm.Category),
			Published:   dm.Published,
			Metadata:    ckan.MetadataStyle(dm.Metadata),
		}
		for _, m := range byDataset[dm.ID] {
			id := nextID()
			d.Resources = append(d.Resources, &ckan.Resource{
				ID:     id,
				Name:   m.Table.Name,
				Format: format(),
				URL:    "/download/" + id,
				Table:  m.Table,
				Size:   m.csvSize,
			})
		}
		// Broken and wide resources, proportional to the dataset's real
		// tables. The funnel rates are fractions of *advertised* tables:
		// readable = 1 - notDownloadable - unreadable - wide, so each
		// real table spawns extras with the corresponding odds.
		nReal := len(byDataset[dm.ID])
		readableFrac := 1 - prof.NotDownloadableFrac - prof.UnreadableFrac - prof.WideFrac
		if readableFrac < 0.05 {
			readableFrac = 0.05
		}
		expected := float64(nReal) / readableFrac
		addBroken := func(kind ckan.BrokenKind, frac float64) {
			n := expected * frac
			count := int(n)
			if rng.Float64() < n-float64(count) {
				count++
			}
			for i := 0; i < count; i++ {
				id := nextID()
				r := &ckan.Resource{
					ID:     id,
					Name:   fmt.Sprintf("archived-%d.csv", resCounter),
					Format: format(),
					URL:    "/download/" + id,
					Broken: kind,
				}
				if kind == ckan.BrokenNone {
					r.Body = wideTableBody(rng)
					r.Name = fmt.Sprintf("matrix-%d.csv", resCounter)
				}
				d.Resources = append(d.Resources, r)
			}
		}
		addBroken(ckan.BrokenNotFound, prof.NotDownloadableFrac)
		addBroken(ckan.BrokenHTMLPage, prof.UnreadableFrac/2)
		addBroken(ckan.BrokenGarbage, prof.UnreadableFrac/2)
		addBroken(ckan.BrokenNone, prof.WideFrac) // wide but parseable-looking
		p.Datasets = append(p.Datasets, d)
	}
	return p
}

// wideTableBody builds a malformed very wide CSV (repeated periodical
// columns, the publication error the paper excludes with the 100-column
// cutoff).
func wideTableBody(rng *rand.Rand) []byte {
	nCols := 120 + rng.Intn(200)
	nRows := 3 + rng.Intn(20)
	var b strings.Builder
	for c := 0; c < nCols; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "w%d", c%12) // repeated periodical headers
	}
	b.WriteByte('\n')
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", rng.Intn(10))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
