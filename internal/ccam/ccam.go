// Package ccam implements the paper's contribution: the
// Connectivity-Clustered Access Method. Nodes are assigned to data
// pages by graph partitioning (Cheng–Wei ratio cut by default) to
// maximize the connectivity residue ratio; Insert() and Delete()
// maintain the clustering with the reorganization policies of the
// paper's Table 1 (first-order, second-order, higher-order), defined
// over the page access graph, which is never materialized — neighbor
// pages are discovered through the secondary index on demand.
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

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

// Config parameterizes a CCAM instance.
type Config struct {
	// File configures the data file Build creates: page size, buffer
	// pool, prefetch, spatial index, page store and instrumentation.
	// Build fills in Bounds from the network; a file adopted through
	// Attach should have been opened with the same value.
	File netfile.Options
	// Partitioner is the two-way partitioning heuristic used for
	// clustering and reclustering (default Cheng–Wei ratio cut).
	Partitioner partition.Bipartitioner
	// Seed drives the partitioner's randomized restarts.
	Seed int64
	// Dynamic selects CCAM-D: Build runs as a sequence of Add-node
	// operations with incremental reclustering instead of one static
	// clustering pass.
	Dynamic bool
	// BuildPolicy is the reorganization policy Add-node applies during
	// a CCAM-D build (default SecondOrder, as in the paper's
	// experiments).
	BuildPolicy netfile.Policy
	// Coalesce enables a post-clustering pass that merges pairs of
	// PAG-adjacent pages whose combined contents fit in one page,
	// raising the blocking factor (and usually the CRR) above what
	// plain top-down splitting achieves. Off by default, matching the
	// paper's Figure 2 exactly.
	Coalesce bool
	// LazyEvery is the update count after which the Lazy policy
	// reorganizes a touched page and its PAG neighbors (default 8).
	LazyEvery int
}

// Method is a CCAM file. It implements netfile.AccessMethod.
//
// Concurrency: Method adds no per-query state of its own — queries go
// straight to the File, whose read operations are reentrant. The
// mutable fields here (rng, updates) are touched only by Build,
// Insert, Delete and the edge maintenance operations, which the owner
// must serialize among themselves (the root ccam.Store holds its writer
// mutex around them; its queries read pinned views beside them).
type Method struct {
	cfg  Config
	f    *netfile.File
	part partition.Bipartitioner
	rng  *rand.Rand
	// updates counts maintenance operations that touched each page,
	// driving the Lazy policy; counters reset when a page is
	// reorganized.
	updates map[storage.PageID]int
}

var _ netfile.AccessMethod = (*Method)(nil)

// New returns an unbuilt CCAM instance. Call Build to load a network,
// or insert nodes one at a time into the empty file.
func New(cfg Config) (*Method, error) {
	if cfg.Partitioner == nil {
		cfg.Partitioner = &partition.RatioCut{}
	}
	if cfg.BuildPolicy == 0 && cfg.Dynamic {
		cfg.BuildPolicy = netfile.SecondOrder
	}
	if cfg.LazyEvery <= 0 {
		cfg.LazyEvery = 8
	}
	m := &Method{
		cfg:     cfg,
		part:    cfg.Partitioner,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		updates: make(map[storage.PageID]int),
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
		err = m.buildDynamic(g)
	} else {
		err = m.buildStatic(g)
	}
	if err == nil {
		// Records carry no access weights; the file's PAG summary takes
		// them from the network, for WCRR.
		f.SetAccessWeights(g)
	}
	return err
}

// buildStatic is Static-Create: cluster-nodes-into-pages over the whole
// network, then bulk load. The recursion runs on a GOMAXPROCS-sized
// worker pool; the subset seed is drawn from m.rng exactly like the
// serial path draws its stream, so the placement depends only on
// Config.Seed, never on the worker count.
func (m *Method) buildStatic(g *graph.Network) error {
	sizeOf := netfile.StoredSizer(g)
	budget := netfile.PageBudget(m.cfg.File.PageSize)
	groups, err := partition.ClusterNodesIntoPagesOpts(g, sizeOf, budget, m.part,
		partition.ClusterOptions{Seed: m.rng.Int63()})
	if err != nil {
		return fmt.Errorf("ccam: static create: %w", err)
	}
	if m.cfg.Coalesce {
		groups, _ = partition.CoalescePages(g, groups, sizeOf, budget, 10)
	}
	return m.f.BulkLoad(g, groups)
}

// buildDynamic is the incremental Create(): a sequence of Add-node
// operations. Add-node places each record like Insert() but skips the
// successor/predecessor list updates (records already carry their full
// lists), applying incremental reclustering per the build policy.
func (m *Method) buildDynamic(g *graph.Network) error {
	for _, id := range g.NodeIDs() {
		rec, err := netfile.RecordFromNode(g, id)
		if err != nil {
			return err
		}
		if err := m.addNode(rec, m.cfg.BuildPolicy); err != nil {
			return fmt.Errorf("ccam: incremental create at node %d: %w", id, err)
		}
	}
	return m.f.Flush()
}

// placeRecord selects a data page for rec per the paper's insertion
// rule — the page holding the most neighbors of rec that has space —
// and stores the record there. With no eligible neighbor page it falls
// back to any page with space, then to a fresh page.
func (m *Method) placeRecord(rec *netfile.Record) (storage.PageID, error) {
	need := rec.EncodedSize() + storage.PerRecordOverhead
	pid, ok, err := m.f.SelectPageWithMostNeighbors(rec.Neighbors(), need)
	if err != nil {
		return storage.InvalidPageID, err
	}
	if !ok {
		pid, ok = m.f.FindPageWithSpace(need)
		if !ok {
			pid, err = m.f.AllocatePage()
			if err != nil {
				return storage.InvalidPageID, err
			}
		}
	}
	if err := m.f.InsertRecordAt(rec, pid); err != nil {
		return storage.InvalidPageID, err
	}
	return pid, nil
}

// addNode is the Add-node() of the incremental create.
func (m *Method) addNode(rec *netfile.Record, policy netfile.Policy) error {
	pid, err := m.placeRecord(rec)
	if err != nil {
		return err
	}
	if policy == netfile.FirstOrder {
		return nil
	}
	return m.ReorganizeAround(rec.ID, pid, rec.Neighbors(), policy)
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
	pid, err := m.placeRecord(rec)
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
	sortPIDs(due)
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
		sortPIDs(pids)
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
		if err := m.f.LogReorg(netfile.MutMergePages, []storage.PageID{pid}); err != nil {
			return err
		}
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
		if err := m.f.LogReorg(netfile.MutMergePages, []storage.PageID{pid, q}); err != nil {
			return err
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
// re-clustering its records with the configured partitioner; it is
// CCAM's overflow handler.
func (m *Method) SplitPage(pid storage.PageID) error {
	if err := m.f.LogReorg(netfile.MutSplitPage, []storage.PageID{pid}); err != nil {
		return err
	}
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
	sortPIDs(pids)
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
	sortPIDs(out)
	return out, nil
}

// ReclusterPages re-clusters the records of the given pages with
// cluster-nodes-into-pages, logging the reorganization to the WAL as a
// merge record (replay skips it — reorganization is a clustering
// optimization, not a content change). It is the entry point of the
// facade's background incremental reorganizer: one bounded
// neighborhood per call, never the whole file.
func (m *Method) ReclusterPages(pids []storage.PageID) error {
	if len(pids) == 0 {
		return nil
	}
	if err := m.f.LogReorg(netfile.MutMergePages, pids); err != nil {
		return err
	}
	return m.reorganizePages(pids, false)
}

// reorganizePages re-clusters the records of the given pages with
// cluster-nodes-into-pages and rewrites the pages. When forceSplit is
// set (overflow handling) the target is two pages even if the records
// would fit in one.
func (m *Method) reorganizePages(pids []storage.PageID, forceSplit bool) error {
	var recs []*netfile.Record
	for _, pid := range pids {
		rs, err := m.f.RecordsOnPage(pid)
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	if len(recs) == 0 {
		return nil
	}
	groups, err := m.clusterRecords(recs, forceSplit)
	if err != nil {
		return err
	}
	// Map groups onto pages: reuse the reorganized pages first, then
	// allocate; free leftovers.
	for i, group := range groups {
		var pid storage.PageID
		if i < len(pids) {
			pid = pids[i]
		} else {
			pid, err = m.f.AllocatePage()
			if err != nil {
				return err
			}
		}
		if err := m.f.ReplacePageContents(pid, group); err != nil {
			return fmt.Errorf("ccam: reorganize: %w", err)
		}
	}
	for i := len(groups); i < len(pids); i++ {
		if err := m.f.FreePage(pids[i]); err != nil {
			return err
		}
	}
	return nil
}

// clusterRecords runs cluster-nodes-into-pages over the subnetwork
// induced by recs. Edge weights are uniform; record sizes come from the
// records themselves (their lists may reference nodes outside the
// subnetwork).
func (m *Method) clusterRecords(recs []*netfile.Record, forceSplit bool) ([][]*netfile.Record, error) {
	byID := make(map[graph.NodeID]*netfile.Record, len(recs))
	sub := graph.NewNetwork()
	for _, r := range recs {
		byID[r.ID] = r
		if err := sub.AddNode(graph.Node{ID: r.ID, Pos: r.Pos}); err != nil {
			return nil, err
		}
	}
	for _, r := range recs {
		for _, s := range r.Succs {
			if _, ok := byID[s.To]; ok {
				_ = sub.AddEdge(graph.Edge{From: r.ID, To: s.To, Cost: float64(s.Cost), Weight: 1})
			}
		}
	}
	sizeOf := func(id graph.NodeID) int {
		return byID[id].EncodedSize() + storage.PerRecordOverhead
	}
	budget := netfile.PageBudget(m.cfg.File.PageSize)
	var idGroups [][]graph.NodeID
	var err error
	if forceSplit && len(recs) >= 2 {
		w := partition.BuildWeighted(sub, sizeOf)
		a, b, perr := m.part.Bipartition(w, budget/2, m.rng)
		if perr != nil {
			return nil, fmt.Errorf("ccam: split: %w", perr)
		}
		idGroups = [][]graph.NodeID{a, b}
	} else {
		idGroups, err = partition.ClusterNodesIntoPages(sub, sizeOf, budget, m.part, m.rng)
		if err != nil {
			return nil, fmt.Errorf("ccam: recluster: %w", err)
		}
	}
	groups := make([][]*netfile.Record, len(idGroups))
	for i, ids := range idGroups {
		for _, id := range ids {
			groups[i] = append(groups[i], byID[id])
		}
	}
	return groups, nil
}

func sortPIDs(s []storage.PageID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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
			rec, err := m.f.ReadRecord(x)
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
	sortPIDs(pids)
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
