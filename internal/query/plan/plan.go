package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ccam/internal/costmodel"
	"ccam/internal/graph"
	"ccam/internal/query/lang"
	"ccam/internal/storage"
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
	// PathZRange drives a window query through the Z-order index with
	// BIGMIN jumps, reading the candidates as one set: each of their
	// data pages is fetched once.
	PathZRange AccessPath = "zrange"
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
	// buffer pool — distinct pages. It is resolved from the
	// memory-resident structures for FIND, WINDOW and ROUTE (for ROUTE
	// assuming every hop is an edge) and estimated for NEIGHBORS and
	// PATH, whose page sets only the search could name; see the package
	// comment. Execution measures the same figure (ReqStats).
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
	pages := c.pagesOf(cand)
	model := float64(pages)
	if c.Stats.Gamma > 0 {
		model = float64(len(cand)) / c.Stats.Gamma
	}
	c.pickOrScan(p, Estimate{
		Path:       PathZRange,
		Pages:      pages,
		ModelPages: model,
		Detail: fmt.Sprintf("%d index candidate(s) on %d distinct page(s); γ-packed lower bound %.2f pages",
			len(cand), pages, model),
	})
	return nil
}

// planNeighbors estimates a depth-k expansion from the §3 statistics.
// Ring i around a node of a road network holds about |A|·i nodes — the
// network is planar and grows like a disk (Eppstein & Goodrich) — so the
// ball holds m = 1 + |A|·k(k+1)/2 nodes: the source's page is read, and
// each further node lands on a page not read yet with probability 1-α.
// The expanded (interior) nodes are the depth k-1 ball, which is what
// the get-successors model is charged for.
func (c *Catalog) planNeighbors(p *Plan, s *lang.Neighbors, params costmodel.Params) {
	pages, ball, interior := 0, 0.0, 0.0
	if c.Has(s.ID) {
		ball, interior = c.ball(s.Depth), c.ball(s.Depth-1)
		pages = c.pagesFor(1+(ball-1)*(1-c.Stats.Alpha), s.ID)
	}
	model := 1 + interior*costmodel.GetSuccessors(params)
	c.pickOrScan(p, Estimate{
		Path:       PathSuccExpand,
		Pages:      pages,
		ModelPages: model,
		Detail: fmt.Sprintf("estimated: ball of m = 1 + |A|·k(k+1)/2 = %.1f node(s) on 1 + (m-1)·(1-α) page(s); "+
			"§3 get-successors over %.1f expansion(s): 1 + n·(1-α)·|A| = %.2f", ball, interior, model),
	})
}

// ball is the estimated node count within depth hops of a node, capped
// by the file's.
func (c *Catalog) ball(depth int) float64 {
	return min(1+c.Stats.AvgA*float64(depth*(depth+1))/2, float64(c.Stats.Nodes))
}

// pagesFor rounds an expected page count to a prediction, capped by the
// file's pages. The rounding is randomized — up with probability equal
// to the fraction — and keyed by the statement's node, so EXPLAIN
// repeats itself while predictions summed over many statements add up
// to the expectation instead of carrying one rounding error each.
func (c *Catalog) pagesFor(expected float64, key graph.NodeID) int {
	whole, frac := math.Modf(expected)
	if u := float64(uint64(key)*0x9E3779B97F4A7C15>>11) / (1 << 53); u < frac {
		whole++
	}
	return min(int(whole), c.Stats.Pages)
}

// planRoute predicts the distinct pages of the route's stored prefix —
// what EvaluateRoute reads when every hop is an edge. The plan cannot see
// a broken hop (the summary keeps no adjacency), which stops the executor
// before later pages; the detail says so whenever it could matter.
func (c *Catalog) planRoute(p *Plan, s *lang.RouteEval, params costmodel.Params) {
	read := make(map[graph.NodeID]bool)
	for _, id := range s.IDs {
		if !c.Has(id) {
			break
		}
		read[id] = true
	}
	pages := c.pagesOf(read)
	model := costmodel.RouteEvaluation(params, len(s.IDs))
	detail := fmt.Sprintf("§3 route evaluation, L=%d: 1 + (L-1)·(1-α) = %.2f", len(s.IDs), model)
	if pages > 1 {
		detail += fmt.Sprintf("; %d pages if every hop is an edge (a hop that is not stops the reads there)", pages)
	}
	p.Chosen = Estimate{Path: PathSuccChain, Pages: pages, ModelPages: model, Detail: detail}
}

// planPath estimates a best-first search as a ball in the page graph:
// Dijkstra settles every node nearer the source than the destination,
// so it reads about the pages within as many PAG hops of the source's
// page as the destination's page lies (every page the source's reaches
// when the destination's is out of reach). The source is read first; a
// missing destination stops the search there.
func (c *Catalog) planPath(p *Plan, s *lang.ShortestPath, params costmodel.Params) {
	pages, hops := 0, 0
	src, okSrc := c.pag.PageOf(s.Src)
	dst, okDst := c.pag.PageOf(s.Dst)
	switch {
	case !okSrc:
	case !okDst || s.Src == s.Dst:
		pages = 1
	default:
		pages, hops = c.pageBall(src, dst)
	}
	n := int(math.Round(float64(pages) * c.Stats.Gamma))
	model := costmodel.RouteEvaluation(params, n)
	p.Chosen = Estimate{
		Path:       PathSuccExpand,
		Pages:      pages,
		ModelPages: model,
		Detail: fmt.Sprintf("estimated: the %d page(s) within %d PAG hop(s) of the source's page; "+
			"§3 route-evaluation form over their ≈%d node(s): 1 + (n-1)·(1-α) = %.2f", pages, hops, n, model),
	}
}

// pageBall searches the PAG breadth-first from page from and returns the
// pages within as many hops as page to lies, and that distance; when to
// is out of reach, every page from reaches and the hops that took.
func (c *Catalog) pageBall(from, to storage.PageID) (pages, hops int) {
	seen := map[storage.PageID]bool{from: true}
	frontier := []storage.PageID{from}
	for !seen[to] {
		var next []storage.PageID
		for _, pid := range frontier {
			for _, nb := range c.pag.Neighbors(pid) {
				if !seen[nb.Page] {
					seen[nb.Page] = true
					next = append(next, nb.Page)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
		hops++
	}
	return len(seen), hops
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
	fmt.Fprintf(&b, "  stats: alpha=%.3f |A|=%.2f lambda=%.2f gamma=%.2f nodes=%d pages=%d\n",
		p.Stats.Alpha, p.Stats.AvgA, p.Stats.Lambda, p.Stats.Gamma,
		p.Stats.Nodes, p.Stats.Pages)
	for _, alt := range p.Alternatives {
		fmt.Fprintf(&b, "  rejected: %s — %d page(s), model %.2f\n", alt.Path, alt.Pages, alt.ModelPages)
	}
	return b.String()
}
