package plan

import (
	"container/heap"
	"errors"
	"fmt"
	"strings"

	"ccam/internal/costmodel"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/lang"
)

// ErrUnsupported reports a statement that parses but that the planner
// cannot execute — e.g. an aggregate attribute the statement kind does
// not define. It crosses the wire as its own error code.
var ErrUnsupported = errors.New("plan: unsupported query")

// AccessPath names a physical access path the planner can choose.
type AccessPath string

// Access paths.
const (
	// PathBTreePoint is a primary-index point lookup: one B+-tree
	// descent to the record's data page.
	PathBTreePoint AccessPath = "btree-point"
	// PathZRange drives a window query through the Z-order B+-tree
	// with BIGMIN jumps, fetching each candidate record.
	PathZRange AccessPath = "zrange"
	// PathRTreeWindow drives a window query through the R-tree.
	PathRTreeWindow AccessPath = "rtree-window"
	// PathPAGScan reads every data page once, sequentially in PAG
	// order, filtering records in memory.
	PathPAGScan AccessPath = "pag-scan"
	// PathSuccExpand expands successor lists through the buffer pool
	// (breadth-first for NEIGHBORS, best-first for PATH).
	PathSuccExpand AccessPath = "successor-expansion"
	// PathSuccChain follows a given route hop by hop, verifying each
	// hop against the predecessor's successor list.
	PathSuccChain AccessPath = "successor-chain"
)

// scanAdvantage is the sequential-over-random advantage the planner
// grants the PAG-ordered page scan: sequential page reads are counted
// at 1/scanAdvantage of a random read when comparing against an
// index-driven path. A scan therefore wins when the index path would
// touch more than Pages/scanAdvantage distinct pages.
const scanAdvantage = 2

// Estimate is one costed access path.
type Estimate struct {
	Path AccessPath `json:"path"`
	// Pages is the predicted number of data-page reads against a cold
	// buffer pool — distinct pages, resolved exactly from the
	// memory-resident structures. Execution validates this figure
	// against the measured ReqStats delta.
	Pages int `json:"pages"`
	// ModelPages is the §3 cost-model estimate for the path (the
	// formula value, fed with the live α/|A|/λ/γ statistics), or the
	// effective sequential cost for a scan.
	ModelPages float64 `json:"model_pages"`
	// Detail explains the estimate: which formula, with which inputs.
	Detail string `json:"detail,omitempty"`
}

// Plan is the planner's output for one statement.
type Plan struct {
	// Stmt is the canonical statement text.
	Stmt string `json:"stmt"`
	// Kind is the statement kind: find, window, neighbors, route, path.
	Kind string `json:"kind"`
	// Chosen is the selected access path.
	Chosen Estimate `json:"chosen"`
	// Alternatives are the rejected paths, costed.
	Alternatives []Estimate `json:"alternatives,omitempty"`
	// Stats is the catalog snapshot the plan was costed against.
	Stats Stats `json:"stats"`
}

// Build plans one parsed statement against the catalog.
func Build(c *Catalog, q *lang.Query) (*Plan, error) {
	p := &Plan{Stmt: q.Stmt.String(), Stats: c.Stats}
	params := costmodel.Params{
		Alpha:  c.Stats.Alpha,
		AvgA:   c.Stats.AvgA,
		Lambda: c.Stats.Lambda,
		Gamma:  c.Stats.Gamma,
	}
	switch s := q.Stmt.(type) {
	case *lang.Find:
		p.Kind = "find"
		c.planFind(p, s)
	case *lang.Window:
		p.Kind = "window"
		if err := c.planWindow(p, s); err != nil {
			return nil, err
		}
	case *lang.Neighbors:
		p.Kind = "neighbors"
		if err := validateAgg(s.Agg); err != nil {
			return nil, err
		}
		c.planNeighbors(p, s, params)
	case *lang.RouteEval:
		p.Kind = "route"
		if err := validateAgg(s.Agg); err != nil {
			return nil, err
		}
		c.planRoute(p, s, params)
	case *lang.ShortestPath:
		p.Kind = "path"
		c.planPath(p, s, params)
	default:
		return nil, fmt.Errorf("%w: statement %T", ErrUnsupported, q.Stmt)
	}
	return p, nil
}

// validateAgg checks the aggregate attribute against the fixed
// vocabulary: every function takes "cost" (the traversed edges'
// costs); COUNT alone also takes "nodes".
func validateAgg(a *lang.Agg) error {
	if a == nil {
		return nil
	}
	switch a.Attr {
	case "cost":
		return nil
	case "nodes":
		if a.Fn == lang.AggCount {
			return nil
		}
		return fmt.Errorf("%w: %s(nodes) — attribute \"nodes\" only supports COUNT", ErrUnsupported, a.Fn)
	default:
		return fmt.Errorf("%w: unknown aggregate attribute %q (want cost or nodes)", ErrUnsupported, a.Attr)
	}
}

// scanEstimate costs the PAG-ordered sequential scan: every data page
// exactly once, discounted by the sequential advantage for comparison.
func (c *Catalog) scanEstimate() Estimate {
	return Estimate{
		Path:       PathPAGScan,
		Pages:      c.Stats.Pages,
		ModelPages: float64(c.Stats.Pages) / scanAdvantage,
		Detail: fmt.Sprintf("sequential scan of all %d data pages in PAG order, counted at 1/%d per page",
			c.Stats.Pages, scanAdvantage),
	}
}

// pickOrScan installs est as the chosen path unless the sequential
// scan's effective cost beats it, in which case the scan wins and est
// becomes the rejected alternative.
func (c *Catalog) pickOrScan(p *Plan, est Estimate) {
	scan := c.scanEstimate()
	if float64(est.Pages) <= scan.ModelPages {
		p.Chosen, p.Alternatives = est, []Estimate{scan}
	} else {
		p.Chosen, p.Alternatives = scan, []Estimate{est}
	}
}

func (c *Catalog) planFind(p *Plan, s *lang.Find) {
	pages := 0
	if c.Has(s.ID) {
		pages = 1
	}
	p.Chosen = Estimate{
		Path:       PathBTreePoint,
		Pages:      pages,
		ModelPages: 1,
		Detail:     "one B+-tree descent to the record's data page (§2.2)",
	}
	p.Alternatives = []Estimate{c.scanEstimate()}
}

func (c *Catalog) planWindow(p *Plan, s *lang.Window) error {
	// Probe the spatial index for its candidate set — the records a
	// window query actually fetches, false positives included.
	cand := make(map[graph.NodeID]bool)
	if err := c.probe(s.Rect, func(id graph.NodeID) bool {
		cand[id] = true
		return true
	}); err != nil {
		return fmt.Errorf("plan: window probe: %w", err)
	}
	path := PathZRange
	if c.Stats.Spatial == "rtree" {
		path = PathRTreeWindow
	}
	pages := c.pagesOf(cand)
	model := float64(pages)
	if c.Stats.Gamma > 0 {
		model = float64(len(cand)) / c.Stats.Gamma
	}
	c.pickOrScan(p, Estimate{
		Path:       path,
		Pages:      pages,
		ModelPages: model,
		Detail: fmt.Sprintf("%d index candidate(s) on %d distinct page(s); γ-packed lower bound %.2f pages",
			len(cand), pages, model),
	})
	return nil
}

func (c *Catalog) planNeighbors(p *Plan, s *lang.Neighbors, params costmodel.Params) {
	ball, interior := c.neighborhood(s.ID, s.Depth)
	model := 1 + float64(interior)*costmodel.GetSuccessors(params)
	c.pickOrScan(p, Estimate{
		Path:       PathSuccExpand,
		Pages:      c.pagesOf(ball),
		ModelPages: model,
		Detail: fmt.Sprintf("§3 get-successors over %d expansion(s): 1 + %d·(1-α)·|A| = %.2f",
			interior, interior, model),
	})
}

func (c *Catalog) planRoute(p *Plan, s *lang.RouteEval, params costmodel.Params) {
	// Mirror EvaluateRoute's reads: the first node, then each verified
	// hop; a missing node or edge stops the evaluation (and the reads).
	read := make(map[graph.NodeID]bool)
	if c.Has(s.IDs[0]) {
		read[s.IDs[0]] = true
		for i := 1; i < len(s.IDs); i++ {
			if !c.hasEdge(s.IDs[i-1], s.IDs[i]) {
				break
			}
			read[s.IDs[i]] = true
		}
	}
	model := costmodel.RouteEvaluation(params, len(s.IDs))
	p.Chosen = Estimate{
		Path:       PathSuccChain,
		Pages:      c.pagesOf(read),
		ModelPages: model,
		Detail: fmt.Sprintf("§3 route evaluation, L=%d: 1 + (L-1)·(1-α) = %.2f",
			len(s.IDs), model),
	}
}

func (c *Catalog) planPath(p *Plan, s *lang.ShortestPath, params costmodel.Params) {
	read := c.dijkstraReads(s.Src, s.Dst)
	model := costmodel.RouteEvaluation(params, len(read))
	p.Chosen = Estimate{
		Path:       PathSuccExpand,
		Pages:      c.pagesOf(read),
		ModelPages: model,
		Detail: fmt.Sprintf("§3 route-evaluation form over %d expanded node(s): 1 + (n-1)·(1-α) = %.2f",
			len(read), model),
	}
}

func (c *Catalog) hasEdge(from, to graph.NodeID) bool {
	for _, e := range c.pag.Succs(from, nil) {
		if e.To == to {
			return true
		}
	}
	return false
}

// neighborhood computes the ball of nodes within depth hops of id
// (following successor edges, as the executor's BFS does) and the
// number of expansions — interior nodes whose successor lists are
// followed. Every ball member's record is read exactly once.
func (c *Catalog) neighborhood(id graph.NodeID, depth int) (ball map[graph.NodeID]bool, interior int) {
	ball = make(map[graph.NodeID]bool)
	if !c.Has(id) {
		return ball, 0
	}
	ball[id] = true
	frontier := []graph.NodeID{id}
	var succs []netfile.PAGEdge
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, u := range frontier {
			interior++
			succs = c.pag.Succs(u, succs[:0])
			for _, e := range succs {
				if !ball[e.To] {
					ball[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return ball, interior
}

// --- Dijkstra mirror ---

// pqItem / pqMirror replicate query.Dijkstra's priority queue exactly
// (same Less, same container/heap), so the mirror settles the same
// node set in the same order and the predicted page set matches the
// executor's reads node for node.
type pqItem struct {
	id   graph.NodeID
	dist float64
}

type pqMirror []pqItem

func (q pqMirror) Len() int            { return len(q) }
func (q pqMirror) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pqMirror) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pqMirror) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pqMirror) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// dijkstraReads mirrors query.Dijkstra over the summary's adjacency
// and returns the set of node records the executor will read: the
// source plus every expanded node. The destination's record is not
// read — Dijkstra returns the moment it settles. Costs accumulate
// from the stored float32 values exactly as the executor does.
func (c *Catalog) dijkstraReads(src, dst graph.NodeID) map[graph.NodeID]bool {
	read := make(map[graph.NodeID]bool)
	if !c.Has(src) {
		return read
	}
	read[src] = true
	if !c.Has(dst) {
		return read
	}
	dist := map[graph.NodeID]float64{src: 0}
	done := map[graph.NodeID]bool{}
	q := &pqMirror{}
	heap.Push(q, pqItem{id: src, dist: 0})
	var succs []netfile.PAGEdge
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == dst {
			return read
		}
		read[cur.id] = true
		succs = c.pag.Succs(cur.id, succs[:0])
		for _, e := range succs {
			if done[e.To] {
				continue
			}
			nd := cur.dist + float64(e.Cost)
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				heap.Push(q, pqItem{id: e.To, dist: nd})
			}
		}
	}
	return read
}

// Describe renders the plan as EXPLAIN's text output.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", p.Stmt)
	fmt.Fprintf(&b, "  access path: %s\n", p.Chosen.Path)
	fmt.Fprintf(&b, "  predicted data pages: %d\n", p.Chosen.Pages)
	if p.Chosen.Detail != "" {
		fmt.Fprintf(&b, "  model: %s\n", p.Chosen.Detail)
	}
	fmt.Fprintf(&b, "  stats: alpha=%.3f |A|=%.2f lambda=%.2f gamma=%.2f nodes=%d pages=%d spatial=%s\n",
		p.Stats.Alpha, p.Stats.AvgA, p.Stats.Lambda, p.Stats.Gamma,
		p.Stats.Nodes, p.Stats.Pages, p.Stats.Spatial)
	for _, alt := range p.Alternatives {
		fmt.Fprintf(&b, "  rejected: %s — %d page(s), model %.2f\n", alt.Path, alt.Pages, alt.ModelPages)
	}
	return b.String()
}
