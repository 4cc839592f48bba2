package graph

import (
	"fmt"

	"ccam/internal/storage"
)

// Placement maps nodes to the data pages holding their records. The
// clustering quality of a placement is what CRR/WCRR measure.
type Placement map[NodeID]storage.PageID

// CRR returns the Connectivity Residue Ratio of the placement over
// network g:
//
//	CRR = (number of unsplit edges) / (total number of edges)
//
// where edge (u, v) is unsplit iff Page(u) == Page(v). Nodes missing
// from the placement never match. Returns 0 for an edgeless network.
func CRR(g *Network, p Placement) float64 {
	total, unsplit := 0, 0
	for from, hes := range g.succ {
		pf, okf := p[from]
		for _, he := range hes {
			total++
			if !okf {
				continue
			}
			if pt, okt := p[he.to]; okt && pt == pf {
				unsplit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unsplit) / float64(total)
}

// WCRR returns the Weighted Connectivity Residue Ratio:
//
//	WCRR = Σ w(u,v) over unsplit edges / Σ w(u,v) over all edges.
//
// With all weights equal it coincides with CRR. Returns 0 when the
// total weight is zero.
func WCRR(g *Network, p Placement) float64 {
	var total, unsplit float64
	for from, hes := range g.succ {
		pf, okf := p[from]
		for _, he := range hes {
			total += he.weight
			if !okf {
				continue
			}
			if pt, okt := p[he.to]; okt && pt == pf {
				unsplit += he.weight
			}
		}
	}
	if total == 0 {
		return 0
	}
	return unsplit / total
}

// PageAccessGraph is the paper's PAG: pages are vertices; two pages are
// adjacent when some network edge crosses between them (Definition 1).
type PageAccessGraph struct {
	adj map[storage.PageID]map[storage.PageID]bool
}

// BuildPAG constructs the page access graph of placement p over g.
func BuildPAG(g *Network, p Placement) *PageAccessGraph {
	pag := &PageAccessGraph{adj: make(map[storage.PageID]map[storage.PageID]bool)}
	for _, pid := range p {
		if pag.adj[pid] == nil {
			pag.adj[pid] = make(map[storage.PageID]bool)
		}
	}
	for from, hes := range g.succ {
		pf, okf := p[from]
		if !okf {
			continue
		}
		for _, he := range hes {
			pt, okt := p[he.to]
			if !okt || pt == pf {
				continue
			}
			pag.adj[pf][pt] = true
			pag.adj[pt][pf] = true
		}
	}
	return pag
}

// NbrPages returns the pages adjacent to p in the PAG.
func (pag *PageAccessGraph) NbrPages(p storage.PageID) []storage.PageID {
	var out []storage.PageID
	for q := range pag.adj[p] {
		out = append(out, q)
	}
	return out
}

// NumPages returns the number of PAG vertices.
func (pag *PageAccessGraph) NumPages() int { return len(pag.adj) }

// PagesOfNbrs returns Page(u) for every u in the neighbor-list of x
// (Definition 2 of the paper), deduplicated.
func PagesOfNbrs(g *Network, p Placement, x NodeID) []storage.PageID {
	seen := map[storage.PageID]bool{}
	var out []storage.PageID
	for _, nb := range g.Neighbors(x) {
		if pid, ok := p[nb]; ok && !seen[pid] {
			seen[pid] = true
			out = append(out, pid)
		}
	}
	return out
}

// ValidatePlacement verifies that p covers exactly the nodes of g.
func ValidatePlacement(g *Network, p Placement) error {
	for id := range g.nodes {
		if _, ok := p[id]; !ok {
			return fmt.Errorf("graph: node %d missing from placement", id)
		}
	}
	for id := range p {
		if !g.HasNode(id) {
			return fmt.Errorf("graph: placement has unknown node %d", id)
		}
	}
	return nil
}
