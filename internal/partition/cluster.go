package partition

import (
	"fmt"
	"math/rand"
	"runtime"
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

// ClusterNodesIntoPages is the paper's Figure 2: top-down connectivity
// clustering. The node set starts as one subset; subsets exceeding
// pageSize bytes are repeatedly bipartitioned (with MinPgSize =
// ⌈pageSize/2⌉ as the side floor) until every subset fits in a page.
// sizeOf gives the record byte size of each node. The result is one
// node-id slice per data page.
//
// This wrapper runs serially, drawing its seed from rng; use
// ClusterNodesIntoPagesOpts to run the recursion on a worker pool.
func ClusterNodesIntoPages(g *graph.Network, sizeOf func(graph.NodeID) int, pageSize int, part Bipartitioner, rng *rand.Rand) ([][]graph.NodeID, error) {
	return ClusterNodesIntoPagesOpts(g, sizeOf, pageSize, part, ClusterOptions{Workers: 1, Seed: rng.Int63()})
}

// ClusterNodesIntoPagesOpts is ClusterNodesIntoPages with the frontier
// subsets — independent subproblems — partitioned concurrently on a
// bounded worker pool. sizeOf is consulted exactly once per node (the
// projection onto the Weighted working set); subset byte sizes are
// threaded down the recursion, and each bipartition splits the parent
// Weighted directly into index-remapped sub-Weighteds instead of
// re-materializing subnetworks. Output is deterministic: a fixed
// opts.Seed yields an identical page list at any worker count.
func ClusterNodesIntoPagesOpts(g *graph.Network, sizeOf func(graph.NodeID) int, pageSize int, part Bipartitioner, opts ClusterOptions) ([][]graph.NodeID, error) {
	if g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	w := BuildWeighted(g, sizeOf)
	return ClusterWeightedIntoPages(w, pageSize, part, opts)
}

// ClusterWeightedIntoPages runs the Figure 2 recursion directly over a
// prepared Weighted working set (see ClusterNodesIntoPagesOpts). w is
// only read. Each worker draws its arrays from its own scratch, which
// lives for this call alone; the page lists returned are carved from
// one array of their own.
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
	if workers := opts.workers(); workers > 1 {
		run.sem = make(chan struct{}, workers-1)
		run.idle = make(chan *scratch, workers)
	}
	if err := run.solve(w, splitmix64(uint64(opts.Seed)), 0, run.scratch()); err != nil {
		return nil, err
	}
	n := 0
	for _, l := range run.pageLen {
		if l > 0 {
			n++
		}
	}
	pages := make([][]graph.NodeID, 0, n)
	for at := 0; at < len(run.out); {
		end := at + int(run.pageLen[at])
		pages = append(pages, run.out[at:end:end])
		at = end
	}
	return pages, nil
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
// is one of this package's, else through Bipartition and its id lists.
func (c *clusterRun) bisect(w *Weighted, sc *scratch, side []bool) error {
	if b, ok := c.part.(bisecter); ok {
		if err := b.bisect(w, c.minPg, sc.rng, sc, side); err != nil {
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
