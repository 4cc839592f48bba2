package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"ccam/internal/graph"
	"ccam/internal/storage"
)

// ClusterOptions configures the top-down clustering recursion.
type ClusterOptions struct {
	// Workers bounds the number of frontier subsets partitioned
	// concurrently (0 = GOMAXPROCS). The result is identical at every
	// worker count for a fixed Seed.
	Workers int
	// Seed drives all randomness: every subset derives its own RNG seed
	// from its parent's by a splitmix64 step, so the random stream a
	// subset sees depends only on its position in the recursion tree,
	// never on scheduling.
	Seed int64
}

func (o ClusterOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ClusterNodesIntoPagesOpts is the paper's Figure 2: top-down
// connectivity clustering. The node set starts as one subset; subsets
// exceeding pageSize bytes are repeatedly bipartitioned (with MinPgSize
// = ⌈pageSize/2⌉ as the side floor) until every subset fits in a page.
// sizeOf gives the record byte size of each node. The result is one
// node-id slice per data page.
//
// Under Multilevel, the store's Create, a split is by page count
// instead: each side is planned as a whole number of pages and may not
// outgrow them (see pageBounds), and once every subset fits, the pages
// go through MergePages. A part then ends near a full page rather than
// anywhere from half a page up.
//
// The frontier subsets — independent subproblems — are partitioned
// concurrently on a bounded worker pool. sizeOf is consulted exactly
// once per node (the projection onto the Weighted working set); subset
// byte sizes are threaded down the recursion, and each bipartition
// splits the parent Weighted directly into index-remapped sub-Weighteds
// instead of re-materializing subnetworks. Output is deterministic: a
// fixed opts.Seed yields an identical page list at any worker count.
func ClusterNodesIntoPagesOpts(g *graph.Network, sizeOf func(graph.NodeID) int, pageSize int, part Bipartitioner, opts ClusterOptions) ([][]graph.NodeID, error) {
	if g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	w := BuildWeighted(g, sizeOf)
	return ClusterWeightedIntoPages(w, pageSize, part, opts)
}

// ClusterWeightedIntoPages runs the Figure 2 recursion directly over a
// prepared Weighted working set (see ClusterNodesIntoPagesOpts). w is
// only read. part picks the page plan as well as the heuristic: a
// *Multilevel splits by page count and merges the finished pages (see
// ClusterNodesIntoPagesOpts); every other Bipartitioner splits with the
// MinPgSize floor. Each worker draws its arrays from its own scratch,
// which lives for this call alone; the page lists returned are carved
// from one array of their own.
func ClusterWeightedIntoPages(w *Weighted, pageSize int, part Bipartitioner, opts ClusterOptions) ([][]graph.NodeID, error) {
	if w.N() == 0 {
		return nil, ErrEmptyGraph
	}
	for i, s := range w.Size {
		if s > pageSize {
			return nil, fmt.Errorf("%w: node %d needs %d bytes, page is %d", ErrNodeTooLarge, w.IDs[i], s, pageSize)
		}
	}
	run := &clusterRun{
		pageSize: pageSize,
		minPg:    (pageSize + 1) / 2,
		part:     part,
		out:      make([]graph.NodeID, w.N()),
		pageLen:  make([]int32, w.N()),
	}
	_, run.packs = part.(*Multilevel)
	if workers := opts.workers(); workers > 1 {
		run.sem = make(chan struct{}, workers-1)
		run.idle = make(chan *scratch, workers)
	}
	if err := run.solve(w, splitmix64(uint64(opts.Seed)), 0, run.scratch()); err != nil {
		return nil, err
	}
	if run.packs {
		mergePages(w, run.out, run.pageLen, pageSize)
	}
	return carve(run.out, run.pageLen), nil
}

// carve cuts the page lists out of out, where pageLen[at] is the length
// of the page starting at out[at].
func carve(out []graph.NodeID, pageLen []int32) [][]graph.NodeID {
	n := 0
	for _, l := range pageLen {
		if l > 0 {
			n++
		}
	}
	pages := make([][]graph.NodeID, 0, n)
	for at := 0; at < len(out); {
		end := at + int(pageLen[at])
		pages = append(pages, out[at:end:end])
		at = end
	}
	return pages
}

// clusterRun holds the recursion's shared state. sem bounds the number
// of subsets partitioned concurrently beyond the calling goroutine: a
// recursion step that acquires a slot hands its first half to a fresh
// goroutine and keeps the second; otherwise both run inline. Every
// running goroutine holds one scratch; idle keeps those of finished
// goroutines for the next, and holds as many as run at once, so that
// handing one back never blocks. On one worker both channels are nil,
// so no slot is ever free. The pages lie in out in page order, which
// is the order of the recursion's leaves: a subset's first half comes
// before its second. pageLen[at] is the length of the page starting at
// out[at].
type clusterRun struct {
	pageSize int
	minPg    int
	part     Bipartitioner
	packs    bool // split by page count and merge pages: part is a *Multilevel
	sem      chan struct{}
	idle     chan *scratch
	out      []graph.NodeID
	pageLen  []int32
}

// scratch returns an idle worker's scratch, or a new one.
func (c *clusterRun) scratch() *scratch {
	select {
	case sc := <-c.idle:
		return sc
	default:
		return &scratch{rng: rand.New(rand.NewSource(0))}
	}
}

// solve clusters one subset into pages laid at out[at:], on sc. Subset
// byte size is w.Total, carried from the parent split — no per-pop
// re-scan.
func (c *clusterRun) solve(w *Weighted, seed uint64, at int, sc *scratch) error {
	if w.Total <= c.pageSize {
		copy(c.out[at:], w.IDs)
		c.pageLen[at] = int32(w.N())
		return nil
	}
	sc.rng.Seed(int64(splitmix64(seed)))
	sc.side = resize(sc.side, w.N())
	if err := c.bisect(w, sc, sc.side); err != nil {
		return err
	}
	sc.remap = resize(sc.remap, w.N())
	wa, wb := sc.child(), sc.child()
	w.splitInto(sc.side, sc.remap, wa, wb)
	seedA := splitmix64(seed ^ 0x517cc1b727220a95)
	seedB := splitmix64(seed ^ 0x2545f4914f6cdd1d)

	var errA, errB error
	select {
	case c.sem <- struct{}{}:
		var forked error // declared here, so only a fork puts it on the heap
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := c.scratch()
			forked = c.solve(wa, seedA, at, own)
			c.idle <- own
			<-c.sem
		}()
		errB = c.solve(wb, seedB, at+wa.N(), sc)
		wg.Wait()
		errA = forked
	default:
		errA = c.solve(wa, seedA, at, sc)
		if errA == nil {
			errB = c.solve(wb, seedB, at+wa.N(), sc)
		}
	}
	sc.free = append(sc.free, wb, wa)
	if errA != nil {
		return errA
	}
	return errB
}

// bisect splits w into side with the run's Bipartitioner: on sc when it
// is one of this package's, within pageBounds when the run packs and
// evenBounds otherwise, else through Bipartition and its id lists.
func (c *clusterRun) bisect(w *Weighted, sc *scratch, side []bool) error {
	if s, ok := c.part.(bisecter); ok {
		b := evenBounds(w, c.minPg)
		if c.packs {
			b = c.pageBounds(w.Total)
		}
		if err := s.split(w, b, sc.rng, sc, side); err != nil {
			return fmt.Errorf("partition: clustering subset of %d nodes: %w", w.N(), err)
		}
		return nil
	}
	a, b, err := c.part.Bipartition(w, c.minPg, sc.rng)
	if err != nil {
		return fmt.Errorf("partition: clustering subset of %d nodes: %w", w.N(), err)
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("partition: %s returned an empty side", c.part.Name())
	}
	if err := w.sideOf(a, b, side); err != nil {
		return fmt.Errorf("partition: %s: %w", c.part.Name(), err)
	}
	return nil
}

// packFill is the share of a page a page-count split plans to fill.
// A sweep on the 65k-node fixture map at 2 KiB pages (EXPERIMENTS.md,
// "Full pages") picked it: fuller plans leave the move pass too little
// room to follow the map's natural cuts, and CRR falls (0.800 at 1.0),
// while emptier ones make more pages at no higher CRR.
const packFill = 0.95

// pageBounds are the side bounds of a page-count split of total bytes,
// total above a page. The subset needs k = ⌈total/(packFill·pageSize)⌉
// pages; side A is planned as ⌈k/2⌉ of them and side B as ⌊k/2⌋, and
// neither side may outgrow its pages' capacity, so each keeps at least
// what the other's pages cannot hold. The search starts from side A
// holding its pages' share of total.
func (c *clusterRun) pageBounds(total int) bounds {
	per := max(1, int(packFill*float64(c.pageSize)))
	k := (total + per - 1) / per
	ka, kb := (k+1)/2, k/2
	return bounds{
		minA:    max(0, total-kb*c.pageSize),
		minB:    max(0, total-ka*c.pageSize),
		targetA: total * ka / k,
	}
}

// MergePages merges pages that share crossing edges, on the working set
// w they place; pages place every node of w once, and pageSize bounds
// a merged page's bytes. Round by round, pairs of pages that share
// crossing edges and fit in one page together merge, the pairs that
// share the most edge weight first and each page in at most one merge
// a round, until a round merges nothing. A merge turns crossing edges
// into internal ones and splits none, so CRR can only rise. A merged
// page takes the place of its first part, and its records keep their
// order in pages. The merged pages are carved from one new array.
func MergePages(w *Weighted, pages [][]graph.NodeID, pageSize int) [][]graph.NodeID {
	out := make([]graph.NodeID, 0, w.N())
	pageLen := make([]int32, w.N())
	for _, pg := range pages {
		if len(pg) > 0 {
			pageLen[len(out)] = int32(len(pg))
			out = append(out, pg...)
		}
	}
	mergePages(w, out, pageLen, pageSize)
	return carve(out, pageLen)
}

// mergePages is MergePages on the pages laid end to end in out, where
// pageLen[at] is the length of the page starting at out[at]; both are
// rewritten in place.
func mergePages(w *Weighted, out []graph.NodeID, pageLen []int32, pageSize int) {
	n := w.N()
	// page[i] is the page of dense index i. Pages are numbered in out
	// order, and a merge keeps the lower number.
	page := make([]int32, n)
	var used []int
	for at := 0; at < n; at += int(pageLen[at]) {
		p := int32(len(used))
		bytes := 0
		for _, id := range out[at : at+int(pageLen[at])] {
			i := w.indexOf(id)
			page[i] = p
			bytes += w.Size[i]
		}
		used = append(used, bytes)
	}
	np := len(used)
	// members[start[p]:start[p+1]] are page p's dense indexes, listed
	// anew each round; next is the counting sort's cursor.
	members := make([]int32, n)
	start := make([]int32, np+1)
	next := make([]int32, np)
	acc := make([]float64, np)
	seen := make([]bool, np)
	var touched []int32
	type pair struct {
		a, b int32 // a < b
		w    float64
	}
	var pairs []pair
	list := func() {
		clear(start)
		for _, p := range page {
			start[p+1]++
		}
		for p := 0; p < np; p++ {
			start[p+1] += start[p]
		}
		copy(next, start)
		for i, p := range page {
			members[next[p]] = int32(i)
			next[p]++
		}
	}
	for {
		list()
		// Each crossing edge weighs in once, at its lower page.
		pairs = pairs[:0]
		for p := int32(0); p < int32(np); p++ {
			for _, i := range members[start[p]:start[p+1]] {
				for _, e := range w.Row(int(i)) {
					if q := page[e.To]; q > p {
						if !seen[q] {
							seen[q] = true
							touched = append(touched, q)
						}
						acc[q] += e.W
					}
				}
			}
			for _, q := range touched {
				if used[p]+used[q] <= pageSize {
					pairs = append(pairs, pair{p, q, acc[q]})
				}
				acc[q], seen[q] = 0, false
			}
			touched = touched[:0]
		}
		slices.SortFunc(pairs, func(x, y pair) int {
			switch {
			case x.w != y.w:
				if x.w > y.w {
					return -1
				}
				return 1
			case x.a != y.a:
				return int(x.a - y.a)
			default:
				return int(x.b - y.b)
			}
		})
		merged := false
		for _, pr := range pairs {
			if seen[pr.a] || seen[pr.b] {
				continue // already in a merge this round
			}
			seen[pr.a], seen[pr.b] = true, true
			for _, i := range members[start[pr.b]:start[pr.b+1]] {
				page[i] = pr.a
			}
			used[pr.a] += used[pr.b]
			merged = true
		}
		clear(seen)
		if !merged {
			break
		}
	}
	// Lay the pages out again in page order, each one's records in their
	// order in out.
	list()
	old := slices.Clone(out)
	clear(pageLen)
	copy(next, start)
	for _, id := range old {
		p := page[w.indexOf(id)]
		if next[p] == start[p] {
			pageLen[start[p]] = start[p+1] - start[p]
		}
		out[next[p]] = id
		next[p]++
	}
}

// splitmix64 is the SplitMix64 finalizer: a single deterministic,
// well-mixed step from one 64-bit state to the next. Each recursion
// node derives its RNG seed and its children's seeds from its own seed
// with it, so random streams are reproducible at any worker count.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PackSequential assigns nodes to pages greedily in the given order,
// starting a new page when the next record would overflow. This is the
// packing primitive under the topological access methods (DFS-AM,
// BFS-AM, WDFS-AM) and the paper's figure-1 style layouts.
func PackSequential(order []graph.NodeID, sizeOf func(graph.NodeID) int, pageSize int) ([][]graph.NodeID, error) {
	var pages [][]graph.NodeID
	var cur []graph.NodeID
	used := 0
	for _, id := range order {
		s := sizeOf(id)
		if s > pageSize {
			return nil, fmt.Errorf("%w: node %d needs %d bytes, page is %d", ErrNodeTooLarge, id, s, pageSize)
		}
		if used+s > pageSize && len(cur) > 0 {
			pages = append(pages, cur)
			cur = nil
			used = 0
		}
		cur = append(cur, id)
		used += s
	}
	if len(cur) > 0 {
		pages = append(pages, cur)
	}
	return pages, nil
}

// PagesQuality summarizes a page assignment for reports and tests.
type PagesQuality struct {
	Pages       int
	CRR         float64
	WCRR        float64
	MinFill     float64 // fill factor of the emptiest page
	AvgFill     float64
	MaxOverflow int // bytes over pageSize in the fullest page (0 if none)
}

// EvaluatePages computes quality metrics of a page assignment.
func EvaluatePages(g *graph.Network, pages [][]graph.NodeID, sizeOf func(graph.NodeID) int, pageSize int) PagesQuality {
	placement := make(graph.Placement)
	minFill := 1.0
	var fillSum float64
	maxOver := 0
	for i, pg := range pages {
		used := 0
		for _, id := range pg {
			placement[id] = storage.PageID(i)
			used += sizeOf(id)
		}
		fill := float64(used) / float64(pageSize)
		if fill < minFill {
			minFill = fill
		}
		fillSum += fill
		if used > pageSize && used-pageSize > maxOver {
			maxOver = used - pageSize
		}
	}
	q := PagesQuality{
		Pages:       len(pages),
		CRR:         graph.CRR(g, placement),
		WCRR:        graph.WCRR(g, placement),
		MinFill:     minFill,
		MaxOverflow: maxOver,
	}
	if len(pages) > 0 {
		q.AvgFill = fillSum / float64(len(pages))
	}
	return q
}
