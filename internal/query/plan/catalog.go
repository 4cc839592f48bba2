// Package plan turns a parsed CCAM-QL statement (internal/query/lang)
// into an executable access plan. The planner enumerates the access
// paths the file supports — B+-tree point lookup, spatial-index window
// (Z-range with BIGMIN jumps), PAG-ordered sequential page scan, and
// successor expansion — and picks the cheapest by predicted data-page
// accesses.
//
// Every plan carries two figures, both reported by EXPLAIN. The paper's
// §3 formulas (internal/costmodel), fed with the live CRR/γ/|A|/λ
// statistics, give the model cost of the path. The headline "predicted
// data pages" is the number of distinct data pages a cold buffer pool
// would read, which execution validates against the measured ReqStats
// deltas: exact where the memory-resident structures name the page set
// (FIND: the node index; WINDOW: the spatial probe and the node index;
// ROUTE: the route's stored prefix, exact when every hop is an edge),
// estimated for the traversals, whose page sets only the search itself
// could name (NEIGHBORS from the §3 statistics, PATH from the page
// graph). The planner never runs a search to predict it.
package plan

import (
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// Stats is the statistics block of a catalog: the paper's cost-model
// parameters plus the file's shape. It appears verbatim in every plan.
type Stats struct {
	// Alpha is α, the CRR: Pr[Page(i) == Page(j)] for an edge (i, j).
	Alpha float64 `json:"alpha"`
	// AvgA is |A|, the mean successor-list length.
	AvgA float64 `json:"avg_a"`
	// Lambda is λ, the mean neighbor-list length (succs + preds).
	Lambda float64 `json:"lambda"`
	// Gamma is γ, the blocking factor (records per data page).
	Gamma float64 `json:"gamma"`
	// Nodes and Pages are the file's record and data-page counts.
	Nodes int `json:"nodes"`
	Pages int `json:"pages"`
}

// Source is what a catalog is opened on: the file's PAG summary —
// through the live *netfile.File (exclusively held) or an LSN-pinned
// netfile.View, which resolves placements as of its LSN and may plan
// beside a running mutation batch — and a probe into the spatial
// index.
type Source interface {
	PAG() netfile.PAGView
	SpatialCandidates(rect geom.Rect, fn func(id graph.NodeID) bool) error
}

var (
	_ Source = (*netfile.File)(nil)
	_ Source = netfile.View{}
)

// Catalog is the planner's view of a stored file: the cost-model
// statistics as of its creation plus a read-only window on the file's
// PAG summary (page pairs, placement) and a probe into the spatial
// index. It mirrors nothing — netfile keeps the summary current under
// every mutation — so opening one costs a handful of divisions.
type Catalog struct {
	Stats Stats

	pag netfile.PAGView
	// probe visits the spatial index's candidate ids for a window, with
	// zero data-page I/O (netfile SpatialCandidates).
	probe func(rect geom.Rect, fn func(graph.NodeID) bool) error
}

// NewCatalog opens a catalog on src. Alpha is the unweighted CRR the
// store's gauges report; all four parameters come from the summary's
// running sums, not from a scan. The error is always nil (the
// signature predates the summary).
func NewCatalog(src Source) (*Catalog, error) {
	c := &Catalog{pag: src.PAG(), probe: src.SpatialCandidates}
	st := c.pag.Stats()
	c.Stats = Stats{
		Alpha: st.CRR(),
		Nodes: st.Nodes,
		Pages: st.Pages,
	}
	if st.Nodes > 0 {
		c.Stats.AvgA = float64(st.Edges) / float64(st.Nodes)
		// Every edge sits in one successor-list and one predecessor-list.
		c.Stats.Lambda = 2 * c.Stats.AvgA
	}
	if st.Pages > 0 {
		c.Stats.Gamma = float64(st.Nodes) / float64(st.Pages)
	}
	return c, nil
}

// Has reports whether node id is stored.
func (c *Catalog) Has(id graph.NodeID) bool {
	_, ok := c.pag.PageOf(id)
	return ok
}

// pagesOf counts the distinct data pages of a node set.
func (c *Catalog) pagesOf(ids map[graph.NodeID]bool) int {
	pages := make(map[storage.PageID]bool, len(ids))
	for id := range ids {
		if pid, ok := c.pag.PageOf(id); ok {
			pages[pid] = true
		}
	}
	return len(pages)
}
