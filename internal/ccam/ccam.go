// Package ccam implements the paper's contribution: the
// Connectivity-Clustered Access Method. Nodes are assigned to data
// pages by graph partitioning to maximize the connectivity residue
// ratio; Insert() and Delete() maintain the clustering with the
// reorganization policies of the paper's Table 1 (first-order,
// second-order, higher-order), defined over the page access graph,
// which is never materialized — neighbor pages are discovered through
// the secondary index on demand. Static-Create clusters with the
// configured partitioner (Cheng–Wei ratio cut, the paper's, by default);
// every reorganization reclusters with ratio cut.
//
// Two create operations are provided, as in the paper: CCAM-S
// (Static-Create: cluster the whole network at once) and CCAM-D
// (incremental create as a sequence of Add-node operations with
// incremental reclustering, for networks too large to partition in
// main memory).
package ccam

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

// Config parameterizes a CCAM instance.
type Config struct {
	// File configures the data file Build creates: page size, buffer
	// pool, spatial index, page store and instrumentation.
	// Build fills in Bounds from the network; a file adopted through
	// Attach should have been opened with the same value.
	File netfile.Options
	// Partitioner is the two-way partitioning heuristic Static-Create
	// clusters the whole network with (default Cheng–Wei ratio cut). It
	// is used by Create only: page splits, the policies' reclustering and
	// CCAM-D's Add-node always use ratio cut.
	Partitioner partition.Bipartitioner
	// Seed drives the partitioner's randomized restarts.
	Seed int64
	// Dynamic selects CCAM-D: Build runs as a sequence of Add-node
	// operations with incremental reclustering instead of one static
	// clustering pass.
	Dynamic bool
	// LazyEvery is the update count after which the Lazy policy
	// reorganizes a touched page and its PAG neighbors (default 8).
	LazyEvery int
}

// Method is a CCAM file. It implements netfile.AccessMethod.
//
// Concurrency: Method adds no per-query state of its own — queries go
// straight to the File, whose read operations are reentrant. The
// mutable fields here (rng, updates, stats) are touched only by Build,
// Insert, Delete and the edge maintenance operations, which the owner
// must serialize among themselves (the root ccam.Store holds its writer
// mutex around them; its queries read pinned views beside them).
type Method struct {
	cfg Config
	f   *netfile.File
	// recluster partitions the working sets of reorganizations — a page
	// split, the 2–16 pages a policy or a round reclusters — with ratio
	// cut, whatever Create clustered with: on a few hundred records
	// coarsening has little to contract, and the full restart search is
	// cheap there.
	recluster partition.Bipartitioner
	rng       *rand.Rand
	// updates counts maintenance operations that touched each page,
	// driving the Lazy policy; counters reset when a page is
	// reorganized.
	updates map[storage.PageID]int
	stats   ReorgStats
}

var _ netfile.AccessMethod = (*Method)(nil)

// New returns an unbuilt CCAM instance. Call Build to load a network,
// or insert nodes one at a time into the empty file.
func New(cfg Config) (*Method, error) {
	if cfg.Partitioner == nil {
		cfg.Partitioner = &partition.RatioCut{}
	}
	if cfg.LazyEvery <= 0 {
		cfg.LazyEvery = 8
	}
	m := &Method{
		cfg:       cfg,
		recluster: &partition.RatioCut{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		updates:   make(map[storage.PageID]int),
	}
	return m, nil
}

// Name implements netfile.AccessMethod.
func (m *Method) Name() string {
	if m.cfg.Dynamic {
		return "ccam-d"
	}
	return "ccam-s"
}

// File implements netfile.AccessMethod.
func (m *Method) File() *netfile.File { return m.f }

// Build implements netfile.AccessMethod: the paper's Create().
func (m *Method) Build(g *graph.Network) error {
	opts := m.cfg.File
	opts.Bounds = g.Bounds()
	f, err := netfile.Create(opts)
	if err != nil {
		return err
	}
	m.f = f
	if m.cfg.Dynamic {
		return m.buildDynamic(g)
	}
	return m.buildStatic(g)
}

// buildStatic is Static-Create: cluster-nodes-into-pages over the whole
// network, then bulk load. The recursion runs on a GOMAXPROCS-sized
// worker pool; the subset seed is drawn from m.rng exactly like the
// serial path draws its stream, so the placement depends only on
// Config.Seed, never on the worker count.
func (m *Method) buildStatic(g *graph.Network) error {
	sizeOf := netfile.StoredSizer(g)
	budget := netfile.PageBudget(m.cfg.File.PageSize)
	groups, err := partition.ClusterNodesIntoPagesOpts(g, sizeOf, budget, m.cfg.Partitioner,
		partition.ClusterOptions{Seed: m.rng.Int63()})
	if err != nil {
		return fmt.Errorf("ccam: static create: %w", err)
	}
	return m.f.BulkLoad(g, groups)
}

// buildDynamic is the incremental Create(): a sequence of Add-node
// operations. Add-node places each record like Insert() but skips the
// successor/predecessor list updates (records already carry their full
// lists, naming nodes not stored yet), applying incremental
// reclustering under the second-order policy, as in the paper's
// experiments. The PAG summary is filled once, from the network, when
// every record is in.
func (m *Method) buildDynamic(g *graph.Network) error {
	for _, id := range g.NodeIDs() {
		rec, err := netfile.RecordFromNode(g, id)
		if err != nil {
			return err
		}
		if err := m.addNode(rec); err != nil {
			return fmt.Errorf("ccam: incremental create at node %d: %w", id, err)
		}
	}
	m.f.FillPAG(g)
	return m.f.Flush()
}

// addNode is the Add-node() of the incremental create: it places rec
// and reorganizes second-order around it.
func (m *Method) addNode(rec *netfile.Record) error {
	pid, err := m.f.PlaceRecord(rec)
	if err != nil {
		return err
	}
	return m.ReorganizeAround(rec.ID, pid, rec.Neighbors(), netfile.SecondOrder)
}

// Insert implements netfile.AccessMethod: the paper's Figure 3.
func (m *Method) Insert(op *netfile.InsertOp, policy netfile.Policy) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if m.f == nil {
		return errors.New("ccam: insert before Build")
	}
	rec := op.Rec
	pid, err := m.f.PlaceRecord(rec)
	if err != nil {
		return err
	}
	// Update succ-list and pred-list of neighbors(x); splits handle
	// overflow of updated pages under every policy.
	if err := m.f.UpdateNeighborLinks(op, m.SplitPage); err != nil {
		return err
	}
	switch policy {
	case netfile.FirstOrder:
		return nil
	case netfile.Lazy:
		return m.lazyTick(pid, rec.Neighbors())
	}
	return m.ReorganizeAround(rec.ID, pid, rec.Neighbors(), policy)
}

// Delete implements netfile.AccessMethod: the paper's Figure 4.
func (m *Method) Delete(id graph.NodeID, policy netfile.Policy) error {
	if m.f == nil {
		return errors.New("ccam: delete before Build")
	}
	pid, err := m.f.PageOf(id)
	if err != nil {
		return err
	}
	rec, err := m.f.DeleteRecord(id)
	if err != nil {
		return err
	}
	if err := m.f.RemoveNeighborLinks(rec); err != nil {
		return err
	}
	switch policy {
	case netfile.FirstOrder:
		return m.mergeIfUnderflow(pid, rec.Neighbors())
	case netfile.Lazy:
		if err := m.mergeIfUnderflow(pid, rec.Neighbors()); err != nil {
			return err
		}
		return m.lazyTick(pid, rec.Neighbors())
	}
	return m.ReorganizeAround(id, pid, rec.Neighbors(), policy)
}

// lazyTick implements the delayed reorganization policy of paper §2.4:
// every page touched by the update accrues a counter; a page whose
// counter reaches LazyEvery is reorganized together with its PAG
// neighbors, and the counters of all reorganized pages reset.
func (m *Method) lazyTick(pagex storage.PageID, neighbors []graph.NodeID) error {
	touched := map[storage.PageID]bool{}
	if _, err := m.f.FreeSpace(pagex); err == nil {
		touched[pagex] = true
	}
	nbrPages, err := m.f.PagesOfNeighbors(neighbors)
	if err != nil {
		return err
	}
	for _, q := range nbrPages {
		touched[q] = true
	}
	var due []storage.PageID
	for q := range touched {
		m.updates[q]++
		if m.updates[q] >= m.cfg.LazyEvery {
			due = append(due, q)
		}
	}
	slices.Sort(due)
	for _, p := range due {
		if _, err := m.f.FreeSpace(p); err != nil {
			delete(m.updates, p)
			continue // freed by an earlier reorganization this tick
		}
		set := map[storage.PageID]bool{p: true}
		nbrs, err := m.NbrPages(p)
		if err != nil {
			return err
		}
		for _, q := range nbrs {
			set[q] = true
		}
		pids := make([]storage.PageID, 0, len(set))
		for q := range set {
			pids = append(pids, q)
		}
		slices.Sort(pids)
		if len(pids) >= 2 {
			if err := m.reorganizePages(pids, false); err != nil {
				return err
			}
		}
		for _, q := range pids {
			delete(m.updates, q)
		}
	}
	return nil
}

// mergeIfUnderflow performs the first-order policy's underflow
// handling: if page pid fell below half full, merge it into a neighbor
// page when the combined contents fit.
func (m *Method) mergeIfUnderflow(pid storage.PageID, neighbors []graph.NodeID) error {
	used, err := m.f.UsedBytesOn(pid)
	if err != nil {
		return err
	}
	if used == 0 {
		return m.f.FreePage(pid)
	}
	if used >= m.cfg.File.PageSize/2 {
		return nil
	}
	cands, err := m.f.PagesOfNeighbors(neighbors)
	if err != nil {
		return err
	}
	for _, q := range cands {
		if q == pid {
			continue
		}
		free, err := m.f.FreeSpace(q)
		if err != nil {
			return err
		}
		ids, err := m.f.NodesOnPage(pid)
		if err != nil {
			return err
		}
		needed := used + storage.PerRecordOverhead*len(ids)
		if free < needed {
			continue
		}
		for _, nid := range ids {
			if err := m.f.MoveRecord(nid, q); err != nil {
				return fmt.Errorf("ccam: merge page %d into %d: %w", pid, q, err)
			}
		}
		return m.f.FreePage(pid)
	}
	return nil
}

// SplitPage splits an overflowing (or full) page into two by
// re-clustering its records with ratio cut; it is CCAM's overflow
// handler.
func (m *Method) SplitPage(pid storage.PageID) error {
	return m.reorganizePages([]storage.PageID{pid}, true)
}

// ReorganizeAround applies a second- or higher-order reorganization
// centred on node x, which lives on (or was just placed on / deleted
// from) page pagex and has the given neighbor-list (paper Table 1):
//
//	second order: {Page(x)} ∪ PagesOfNbrs(x)
//	higher order: {Page(x)} ∪ PagesOfNbrs(x) ∪ NbrPages(Page(x))
func (m *Method) ReorganizeAround(x graph.NodeID, pagex storage.PageID, neighbors []graph.NodeID, policy netfile.Policy) error {
	set := map[storage.PageID]bool{}
	if _, err := m.f.FreeSpace(pagex); err == nil {
		set[pagex] = true
	}
	nbrPages, err := m.f.PagesOfNeighbors(neighbors)
	if err != nil {
		return err
	}
	for _, q := range nbrPages {
		set[q] = true
	}
	if policy == netfile.HigherOrder {
		pagPages, err := m.NbrPages(pagex)
		if err != nil {
			return err
		}
		for _, q := range pagPages {
			set[q] = true
		}
	}
	if len(set) < 2 {
		return nil
	}
	pids := make([]storage.PageID, 0, len(set))
	for q := range set {
		pids = append(pids, q)
	}
	slices.Sort(pids)
	return m.reorganizePages(pids, false)
}

// NbrPages returns the PAG neighbors of page pid: every page holding a
// neighbor of some record stored on pid. The PAG is not materialized
// (paper §2.4); discovery reads the page and probes the index.
func (m *Method) NbrPages(pid storage.PageID) ([]storage.PageID, error) {
	if _, err := m.f.FreeSpace(pid); err != nil {
		return nil, nil // page was freed (e.g. by a merge); no neighbors
	}
	recs, err := m.f.RecordsOnPage(pid)
	if err != nil {
		return nil, err
	}
	seen := map[storage.PageID]bool{}
	var out []storage.PageID
	for _, rec := range recs {
		pages, err := m.f.PagesOfNeighbors(rec.Neighbors())
		if err != nil {
			return nil, err
		}
		for _, q := range pages {
			if q != pid && !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// PlanRecluster decides the reorganization of the given pages as one
// set, reading them and writing nothing; a nil plan means the placement
// stays as it is. With ReclusterPages it is the entry point of the
// facade's incremental reorganization rounds — one bounded
// neighborhood per call, never the whole file — which open their write
// transaction only for a plan that will rewrite a page.
func (m *Method) PlanRecluster(pids []storage.PageID) (*ReorgPlan, error) {
	return m.planReorg(pids, false)
}

// ReclusterPages carries out a plan of PlanRecluster and returns how
// many pages it rewrote. Like every reorganization it writes no log
// record, and replay re-runs no round, so a crash loses the new
// placement, though never a record, back to the last checkpoint.
func (m *Method) ReclusterPages(plan *ReorgPlan) (rewritten int, err error) {
	before := m.stats.PagesRewritten
	err = m.applyReorg(plan)
	return int(m.stats.PagesRewritten - before), err
}

// ReorgStats counts what the reorganizations of this method — the
// write-path policies, page splits and ReclusterPages alike — have done
// since it was created.
type ReorgStats struct {
	// RecordsMoved is the number of records that changed page.
	RecordsMoved int64
	// PagesRewritten is the number of data pages rewritten.
	PagesRewritten int64
	// Kept is the number of reorganizations that moved no record: the
	// placement they were handed was already a local optimum.
	Kept int64
}

// ReorgStats returns the counters; like every mutable field of Method
// they are plain values the owner reads under its writer serialization.
func (m *Method) ReorgStats() ReorgStats { return m.stats }

// reorganizePages reorganizes the records of the given pages as one
// set. When forceSplit is set (overflow handling) the result is two
// pages even if the records would fit in one.
func (m *Method) reorganizePages(pids []storage.PageID, forceSplit bool) error {
	plan, err := m.planReorg(pids, forceSplit)
	if plan == nil || err != nil {
		return err
	}
	return m.applyReorg(plan)
}

// ReorgPlan is a reorganization decided but not yet written: the
// records of pids in ascending id order and, for each, the page it is
// on (cur) and the page it goes to (next), as indexes into pids.
// Indexes from len(pids) up name pages still to be allocated.
type ReorgPlan struct {
	pids      []storage.PageID
	recs      []*netfile.Record
	cur, next []int
}

// planReorg reads the page set and decides its new placement, writing
// nothing. It starts from where the records already are: a set whose
// records sit on two pages — every edge update, most node updates — is
// refined in place (partition.Refine: raw cut, each side within the page
// budget), and a set that is already a local optimum yields a nil plan.
// Clustering from scratch remains where there is no placement to refine
// (a forced split, a page over the budget), where the page count must
// change (the bytes fit in fewer pages than they occupy) and for
// records on more than two pages; its result is laid onto the old pages
// by greatest overlap, and replaces a usable old placement only with a
// strictly lower in-set cut, or with fewer pages at no higher a cut.
// Whichever way, a page of the set that holds no record is freed.
func (m *Method) planReorg(pids []storage.PageID, forceSplit bool) (*ReorgPlan, error) {
	onPage := make([][]*netfile.Record, len(pids))
	var occupied []int // indexes into pids of the pages holding records
	for i, pid := range pids {
		rs, err := m.f.RecordsOnPage(pid)
		if err != nil {
			return nil, err
		}
		if len(rs) > 0 {
			occupied = append(occupied, i)
		}
		onPage[i] = rs
	}
	plan := &ReorgPlan{pids: pids, recs: slices.Concat(onPage...)}
	plan.cur = make([]int, 0, len(plan.recs))
	for i, rs := range onPage {
		for range rs {
			plan.cur = append(plan.cur, i)
		}
	}
	// stay keeps the placement in hand; all that may be left to do is to
	// free the empty pages.
	stay := func() (*ReorgPlan, error) {
		m.stats.Kept++
		if len(occupied) == len(pids) {
			return nil, nil
		}
		plan.next = plan.cur
		return plan, nil
	}
	if len(plan.recs) == 0 {
		return stay()
	}
	sort.Sort(byRecordID{plan})
	w := workingSet(plan.recs)
	budget := netfile.PageBudget(m.cfg.File.PageSize)

	// The placement in hand is usable when no split is forced and every
	// page respects the budget the clustering works to (an update in
	// place may have filled a page a slot entry beyond it).
	usable := !forceSplit
	used := make([]int, len(pids))
	for i, p := range plan.cur {
		if used[p] += w.Size[i]; used[p] > budget {
			usable = false
		}
	}
	fewer := (w.Total+budget-1)/budget < len(occupied)

	if usable && !fewer && len(occupied) == 2 {
		a, b := occupied[0], occupied[1]
		side := make([]bool, len(plan.cur))
		for i, p := range plan.cur {
			side[i] = p == b
		}
		if !partition.Refine(w, side, budget) {
			return stay()
		}
		plan.next = make([]int, len(side))
		for i, onB := range side {
			plan.next[i] = a
			if onB {
				plan.next[i] = b
			}
		}
		return plan, nil
	}

	groups, err := m.cluster(w, budget, forceSplit)
	if err != nil {
		return nil, err
	}
	plan.next = overlay(w, groups, plan.cur, len(pids))
	if slices.Equal(plan.next, plan.cur) {
		return stay()
	}
	if usable {
		was, now := w.PartCut(plan.cur), w.PartCut(plan.next)
		if now > was || now == was && len(groups) >= len(occupied) {
			return stay()
		}
	}
	return plan, nil
}

// byRecordID sorts a plan's records, and cur beside them, by node id:
// the order partition.Weighted keeps its nodes in.
type byRecordID struct{ *ReorgPlan }

func (p byRecordID) Len() int           { return len(p.recs) }
func (p byRecordID) Less(i, j int) bool { return p.recs[i].ID < p.recs[j].ID }
func (p byRecordID) Swap(i, j int) {
	p.recs[i], p.recs[j] = p.recs[j], p.recs[i]
	p.cur[i], p.cur[j] = p.cur[j], p.cur[i]
}

// workingSet projects records (ascending by id) onto the partitioner's
// working representation: the subnetwork they induce, read straight off
// their successor-lists — an entry naming a node outside the set is not
// an edge of it. Edge weights are uniform, so a pair linked both ways
// weighs 2; sizes are stored sizes, record plus slot. A node's row
// reads its own successor-list and, for its in-set predecessors, the
// other ends' successor-lists, not its own predecessor-list: while an
// insert is linked to its neighbors (netfile.File.UpdateNeighborLinks),
// a page split can read records whose lists do not agree yet.
func workingSet(recs []*netfile.Record) *partition.Weighted {
	n := len(recs)
	ids := make([]graph.NodeID, n)
	sizes := make([]int, n)
	links := 0
	for i, r := range recs {
		ids[i] = r.ID
		sizes[i] = r.EncodedSize() + storage.PerRecordOverhead
		links += len(r.Succs)
	}
	// succ[out[u]:out[u+1]] are the in-set successors of u, and
	// pred[in[v]:in[v+1]] the in-set nodes whose lists name v: in counts
	// each v's links at in[v], sums them into range ends and, stepping
	// back one per link placed, ends at the range starts.
	out := make([]int32, n+1)
	in := make([]int32, n+1)
	succ := make([]int32, 0, links)
	for u, r := range recs {
		for _, s := range r.Succs {
			if v, ok := slices.BinarySearch(ids, s.To); ok {
				succ = append(succ, int32(v))
				in[v]++
			}
		}
		out[u+1] = int32(len(succ))
	}
	for v := 1; v <= n; v++ {
		in[v] += in[v-1]
	}
	pred := make([]int32, len(succ))
	for u := 0; u < n; u++ {
		for _, v := range succ[out[u]:out[u+1]] {
			in[v]--
			pred[in[v]] = int32(u)
		}
	}
	return partition.NewWeighted(ids, sizes, func(u int, add func(int32, float64)) {
		for _, v := range succ[out[u]:out[u+1]] {
			add(v, 1)
		}
		for _, v := range pred[in[u]:in[u+1]] {
			add(v, 1)
		}
	})
}

// cluster runs cluster-nodes-into-pages (paper Figure 2) over the
// working set from scratch, or one bipartition when a split is forced,
// both with ratio cut, and returns each node's group.
func (m *Method) cluster(w *partition.Weighted, budget int, forceSplit bool) ([][]graph.NodeID, error) {
	if forceSplit && w.N() >= 2 {
		a, b, err := m.recluster.Bipartition(w, budget/2, m.rng)
		if err != nil {
			return nil, fmt.Errorf("ccam: split: %w", err)
		}
		return [][]graph.NodeID{a, b}, nil
	}
	groups, err := partition.ClusterWeightedIntoPages(w, budget, m.recluster,
		partition.ClusterOptions{Workers: 1, Seed: m.rng.Int63()})
	if err != nil {
		return nil, fmt.Errorf("ccam: recluster: %w", err)
	}
	return groups, nil
}

// overlay lays freshly clustered groups onto the pages the records
// occupy (cur, over pages 0..pages-1): repeatedly the group and the
// unclaimed page sharing the most records are matched, so a partition
// that comes back unchanged, in whatever order, maps onto itself.
// Groups left over once every page is claimed get new page indexes. It
// returns each node's page index.
func overlay(w *partition.Weighted, groups [][]graph.NodeID, cur []int, pages int) []int {
	next := make([]int, w.N()) // each node's group first, its page in the end
	shared := make([][]int, len(groups))
	for g, ids := range groups {
		shared[g] = make([]int, pages)
		for _, id := range ids {
			i, _ := slices.BinarySearch(w.IDs, id)
			next[i] = g
			shared[g][cur[i]]++
		}
	}
	pageOf := make([]int, len(groups)) // group -> page index
	for g := range pageOf {
		pageOf[g] = -1
	}
	claimed := make([]bool, pages)
	for n := min(len(groups), pages); n > 0; n-- {
		bg, bp := -1, -1
		for g := range groups {
			if pageOf[g] >= 0 {
				continue
			}
			for p := 0; p < pages; p++ {
				if !claimed[p] && (bg < 0 || shared[g][p] > shared[bg][bp]) {
					bg, bp = g, p
				}
			}
		}
		pageOf[bg], claimed[bp] = bp, true
	}
	fresh := pages
	for g := range pageOf {
		if pageOf[g] < 0 {
			pageOf[g] = fresh
			fresh++
		}
	}
	for i, g := range next {
		next[i] = pageOf[g]
	}
	return next
}

// applyReorg writes a plan out: pages whose record set changes are
// rewritten — new ones allocated first — and pages left empty are
// freed; a page that keeps its records is not fetched.
func (m *Method) applyReorg(plan *ReorgPlan) error {
	pids := slices.Clip(plan.pids) // new pages are appended; the caller's slice stays its own
	pages := len(pids)
	for _, p := range plan.next {
		if p >= pages {
			pages = p + 1
		}
	}
	groups := make([][]*netfile.Record, pages)
	changed := make([]bool, pages)
	for i, r := range plan.recs {
		from, to := plan.cur[i], plan.next[i]
		groups[to] = append(groups[to], r)
		if from != to {
			changed[from], changed[to] = true, true
			m.stats.RecordsMoved++
		}
	}
	for p, group := range groups {
		if len(group) == 0 || !changed[p] {
			continue
		}
		if p >= len(pids) {
			pid, err := m.f.AllocatePage()
			if err != nil {
				return err
			}
			pids = append(pids, pid)
		}
		if err := m.f.ReplacePageContents(pids[p], group); err != nil {
			return fmt.Errorf("ccam: reorganize: %w", err)
		}
		m.stats.PagesRewritten++
	}
	for p := range plan.pids {
		if len(groups[p]) == 0 {
			if err := m.f.FreePage(pids[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// CRR returns the file's current connectivity residue ratio measured
// against network g.
func (m *Method) CRR(g *graph.Network) float64 {
	return graph.CRR(g, m.f.Placement())
}

// WCRR returns the file's current weighted connectivity residue ratio
// measured against network g.
func (m *Method) WCRR(g *graph.Network) float64 {
	return graph.WCRR(g, m.f.Placement())
}

// InsertEdge implements netfile.AccessMethod: the paper's Insert() with
// an edge argument. Under the second-order policy the reorganized set
// is {Page(u), Page(v)}; the higher-order policy additionally
// reorganizes the PAG neighbors of both pages (Table 1).
func (m *Method) InsertEdge(from, to graph.NodeID, cost float32, policy netfile.Policy) error {
	if m.f == nil {
		return errors.New("ccam: insert edge before Build")
	}
	if err := m.f.AddEdgeRecords(from, to, cost, m.SplitPage); err != nil {
		return err
	}
	if policy == netfile.FirstOrder {
		return nil
	}
	return m.reorganizeEdgePages(from, to, policy)
}

// DeleteEdge implements netfile.AccessMethod: the paper's Delete() with
// an edge argument.
func (m *Method) DeleteEdge(from, to graph.NodeID, policy netfile.Policy) error {
	if m.f == nil {
		return errors.New("ccam: delete edge before Build")
	}
	if err := m.f.RemoveEdgeRecords(from, to); err != nil {
		return err
	}
	if policy == netfile.FirstOrder {
		// Handle underflow of either endpoint page.
		for _, x := range []graph.NodeID{from, to} {
			pid, err := m.f.PageOf(x)
			if err != nil {
				return err
			}
			rec, err := m.f.Find(x)
			if err != nil {
				return err
			}
			if err := m.mergeIfUnderflow(pid, rec.Neighbors()); err != nil {
				return err
			}
		}
		return nil
	}
	return m.reorganizeEdgePages(from, to, policy)
}

// reorganizeEdgePages applies the edge-argument rows of the paper's
// Table 1: second order reorganizes {Page(u), Page(v)}; higher order
// adds NbrPages(Page(u)) ∪ NbrPages(Page(v)).
func (m *Method) reorganizeEdgePages(u, v graph.NodeID, policy netfile.Policy) error {
	pu, err := m.f.PageOf(u)
	if err != nil {
		return err
	}
	pv, err := m.f.PageOf(v)
	if err != nil {
		return err
	}
	set := map[storage.PageID]bool{pu: true, pv: true}
	if policy == netfile.HigherOrder {
		for _, p := range []storage.PageID{pu, pv} {
			nbrs, err := m.NbrPages(p)
			if err != nil {
				return err
			}
			for _, q := range nbrs {
				set[q] = true
			}
		}
	}
	if len(set) < 2 {
		return nil
	}
	pids := make([]storage.PageID, 0, len(set))
	for q := range set {
		pids = append(pids, q)
	}
	slices.Sort(pids)
	return m.reorganizePages(pids, false)
}

// Attach adopts an existing data file (e.g. one reconstructed from a
// reopened page store) as this method's file. The method must not have
// been built.
func (m *Method) Attach(f *netfile.File) error {
	if m.f != nil {
		return errors.New("ccam: method already has a file")
	}
	if f.PageSize() != m.cfg.File.PageSize {
		return fmt.Errorf("ccam: file page size %d != configured %d", f.PageSize(), m.cfg.File.PageSize)
	}
	m.f = f
	return nil
}
