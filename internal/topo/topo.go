// Package topo implements the ordering-based baselines: the paper's
// topological orderings — DFS-AM and BFS-AM (extensions of
// topological-ordering based files to general graphs, ordering nodes by
// depth-first / breadth-first traversal from a random starting node)
// and WDFS-AM (depth-first search following heaviest edge weights
// first) — plus two proximity orderings in the spirit of the
// space-filling-curve access methods evaluated by the paper's companion
// study [23]: Hilbert-AM and ZCurve-AM order nodes by the Hilbert /
// Z-order index of their coordinates. Nodes are packed into pages
// sequentially in the chosen order.
package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

// Kind selects the traversal order.
type Kind int

// Ordering kinds.
const (
	DFS Kind = iota
	BFS
	WDFS
	// Hilbert orders nodes along the Hilbert curve of their positions.
	Hilbert
	// ZCurve orders nodes along the Z-order (Morton) curve.
	ZCurve
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case DFS:
		return "dfs-am"
	case BFS:
		return "bfs-am"
	case WDFS:
		return "wdfs-am"
	case Hilbert:
		return "hilbert-am"
	case ZCurve:
		return "zcurve-am"
	default:
		return fmt.Sprintf("topo(%d)", int(k))
	}
}

// Config parameterizes a topological access method.
type Config struct {
	// Kind is the traversal order (DFS, BFS or WDFS).
	Kind Kind
	// PageSize is the disk block size in bytes.
	PageSize int
	// PoolPages is the buffer pool capacity (default 32).
	PoolPages int
	// Seed selects the random starting node.
	Seed int64
	// Store optionally supplies the data page store.
	Store storage.Store
}

// Method is a topological-ordering access method over the shared data
// file. It implements netfile.AccessMethod.
type Method struct {
	cfg Config
	f   *netfile.File
	rng *rand.Rand
}

var _ netfile.AccessMethod = (*Method)(nil)

// New returns an unbuilt instance.
func New(cfg Config) (*Method, error) {
	if cfg.Kind < DFS || cfg.Kind > ZCurve {
		return nil, fmt.Errorf("topo: unknown kind %d", cfg.Kind)
	}
	return &Method{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements netfile.AccessMethod.
func (m *Method) Name() string { return m.cfg.Kind.String() }

// File implements netfile.AccessMethod.
func (m *Method) File() *netfile.File { return m.f }

// Build implements netfile.AccessMethod: order the nodes by the
// configured traversal from a random starting node and pack them into
// pages in that order.
func (m *Method) Build(g *graph.Network) error {
	f, err := netfile.Create(netfile.Options{
		PageSize:  m.cfg.PageSize,
		PoolPages: m.cfg.PoolPages,
		Bounds:    g.Bounds(),
		Store:     m.cfg.Store,
	})
	if err != nil {
		return err
	}
	m.f = f
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return nil
	}
	start := ids[m.rng.Intn(len(ids))]
	var order []graph.NodeID
	switch m.cfg.Kind {
	case DFS:
		order = partition.DFSOrder(g, start, false)
	case WDFS:
		order = partition.DFSOrder(g, start, true)
	case BFS:
		order = partition.BFSOrder(g, start)
	case Hilbert, ZCurve:
		order = m.curveOrder(g, ids)
	}
	groups, err := partition.PackSequential(order, netfile.StoredSizer(g), netfile.PageBudget(m.cfg.PageSize))
	if err != nil {
		return fmt.Errorf("topo: pack %s order: %w", m.cfg.Kind, err)
	}
	return m.f.BulkLoad(g, groups)
}

// Insert implements netfile.AccessMethod. Topological files have no
// reclustering machinery; the new record is placed on the neighbor
// page with the most neighbors of x that has space (keeping the
// traversal locality it was built with), and overflow splits a page in
// half by insertion order. The policy argument is accepted for
// interface compatibility but only first-order behaviour exists.
func (m *Method) Insert(op *netfile.InsertOp, _ netfile.Policy) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if m.f == nil {
		return errors.New("topo: insert before Build")
	}
	if _, err := m.f.PlaceRecord(op.Rec); err != nil {
		return err
	}
	return m.f.UpdateNeighborLinks(op, m.splitPage)
}

// Delete implements netfile.AccessMethod.
func (m *Method) Delete(id graph.NodeID, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("topo: delete before Build")
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
	// Underflow: free empty pages; otherwise leave in place (delay
	// reorganization, first-order guiding principle).
	used, err := m.f.UsedBytesOn(pid)
	if err != nil {
		return err
	}
	if used == 0 {
		return m.f.FreePage(pid)
	}
	return nil
}

// curveOrder sorts the nodes by the space-filling-curve index of their
// coordinates.
func (m *Method) curveOrder(g *graph.Network, ids []graph.NodeID) []graph.NodeID {
	quant := geom.NewQuantizer(g.Bounds())
	key := make(map[graph.NodeID]uint64, len(ids))
	for _, id := range ids {
		n, err := g.Node(id)
		if err != nil {
			continue
		}
		if m.cfg.Kind == Hilbert {
			key[id] = quant.Hilbert(n.Pos)
		} else {
			key[id] = quant.Z(n.Pos)
		}
	}
	order := append([]graph.NodeID(nil), ids...)
	sort.Slice(order, func(i, j int) bool {
		if key[order[i]] != key[order[j]] {
			return key[order[i]] < key[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// splitPage halves an overflowing page by slot order, preserving
// sequential locality.
func (m *Method) splitPage(pid storage.PageID) error {
	ids, err := m.f.NodesOnPage(pid)
	if err != nil {
		return err
	}
	if len(ids) < 2 {
		return fmt.Errorf("topo: cannot split page %d with %d records", pid, len(ids))
	}
	newPid, err := m.f.AllocatePage()
	if err != nil {
		return err
	}
	for _, id := range ids[len(ids)/2:] {
		if err := m.f.MoveRecord(id, newPid); err != nil {
			return fmt.Errorf("topo: split page %d: %w", pid, err)
		}
	}
	return nil
}

// InsertEdge implements netfile.AccessMethod: the records of both
// endpoints are updated in place; page overflow splits sequentially.
func (m *Method) InsertEdge(from, to graph.NodeID, cost float32, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("topo: insert edge before Build")
	}
	return m.f.AddEdgeRecords(from, to, cost, m.splitPage)
}

// DeleteEdge implements netfile.AccessMethod.
func (m *Method) DeleteEdge(from, to graph.NodeID, _ netfile.Policy) error {
	if m.f == nil {
		return errors.New("topo: delete edge before Build")
	}
	return m.f.RemoveEdgeRecords(from, to)
}
