package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ccam/internal/ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// Fig7Config parameterizes the reorganization-policy experiment (paper
// Figure 7): a CCAM file is built on part of the map and the remaining
// nodes are inserted under each policy, tracking per-insert I/O and the
// CRR trajectory.
type Fig7Config struct {
	Setup Setup
	// BlockSize defaults to 1024.
	BlockSize int
	// InsertFrac is the fraction of nodes inserted dynamically
	// (default 0.20, "insertion of 20% of the nodes").
	InsertFrac float64
	// Points is the number of samples along the insertion sequence for
	// the reported series (default 10).
	Points int
	// Policies defaults to all three.
	Policies []netfile.Policy
	// LazyEvery tunes the Lazy policy's reorganization threshold
	// (default: the ccam package default).
	LazyEvery int
}

// Fig7Series is the trajectory of one policy.
type Fig7Series struct {
	Policy netfile.Policy
	// InsertCounts are the x-coordinates (number of insertions done).
	InsertCounts []int
	// AvgIO[i] is the cumulative average data-page accesses
	// (reads+writes) per insert after InsertCounts[i] insertions.
	AvgIO []float64
	// CRR[i] is the file's CRR after InsertCounts[i] insertions.
	CRR []float64
	// CPUTime is the total wall-clock time spent inside Insert across
	// the whole run — the reorganization CPU cost the paper's future
	// work asks about (reclustering is CPU-bound; the simulated disk
	// contributes nothing).
	CPUTime time.Duration
}

// Fig7Result holds one series per policy.
type Fig7Result struct {
	Series []Fig7Series
}

// RunFig7 reproduces Figure 7: the I/O cost and CRR effects of the
// first-order, second-order and higher-order reorganization policies
// during the insertion of 20% of the road map's nodes.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	if cfg.InsertFrac == 0 {
		cfg.InsertFrac = 0.20
	}
	if cfg.Points == 0 {
		cfg.Points = 10
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []netfile.Policy{netfile.FirstOrder, netfile.SecondOrder, netfile.HigherOrder}
	}
	full, err := cfg.Setup.Network()
	if err != nil {
		return nil, err
	}
	// Choose the late-arriving nodes once so all policies see the same
	// insertion sequence.
	ids := full.NodeIDs()
	rng := rand.New(rand.NewSource(cfg.Setup.Seed + 7))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nLate := int(float64(len(ids)) * cfg.InsertFrac)
	late := ids[:nLate]
	lateSet := map[graph.NodeID]bool{}
	for _, id := range late {
		lateSet[id] = true
	}
	base := full.Clone()
	for _, id := range late {
		base.RemoveNode(id)
	}

	res := &Fig7Result{}
	for _, policy := range cfg.Policies {
		series, err := runFig7Policy(full, base, late, policy, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 %s: %w", policy, err)
		}
		res.Series = append(res.Series, *series)
	}
	return res, nil
}

func runFig7Policy(full, base *graph.Network, late []graph.NodeID, policy netfile.Policy, cfg Fig7Config) (*Fig7Series, error) {
	m, err := ccam.New(ccam.Config{File: netfile.Options{PageSize: cfg.BlockSize, PoolPages: 64}, Seed: cfg.Setup.Seed, LazyEvery: cfg.LazyEvery})
	if err != nil {
		return nil, err
	}
	if err := m.Build(base); err != nil {
		return nil, err
	}
	f := m.File()
	cur := base.Clone()

	series := &Fig7Series{Policy: policy}
	every := len(late) / cfg.Points
	if every < 1 {
		every = 1
	}
	var totalIO int64
	for i, id := range late {
		op, err := restrictedInsertOp(full, cur, id)
		if err != nil {
			return nil, err
		}
		if err := f.ResetIO(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := m.Insert(op, policy); err != nil {
			return nil, fmt.Errorf("insert %d: %w", id, err)
		}
		series.CPUTime += time.Since(start)
		if err := f.Flush(); err != nil {
			return nil, err
		}
		io := f.DataIO()
		totalIO += io.Reads + io.Writes
		if err := mirrorInsertOp(cur, op); err != nil {
			return nil, err
		}
		if (i+1)%every == 0 || i == len(late)-1 {
			series.InsertCounts = append(series.InsertCounts, i+1)
			series.AvgIO = append(series.AvgIO, float64(totalIO)/float64(i+1))
			series.CRR = append(series.CRR, graph.CRR(cur, f.Placement()))
		}
	}
	return series, nil
}

// restrictedInsertOp builds the insert operation for node id of full,
// keeping only edges whose other endpoint already exists in cur.
func restrictedInsertOp(full, cur *graph.Network, id graph.NodeID) (*netfile.InsertOp, error) {
	n, err := full.Node(id)
	if err != nil {
		return nil, err
	}
	rec := &netfile.Record{ID: id, Pos: n.Pos}
	if n.Attrs != nil {
		rec.Attrs = append([]byte(nil), n.Attrs...)
	}
	for _, e := range full.SuccessorEdges(id) {
		if cur.HasNode(e.To) {
			rec.Succs = append(rec.Succs, netfile.SuccEntry{To: e.To, Cost: float32(e.Cost)})
		}
	}
	op := &netfile.InsertOp{Rec: rec}
	for _, p := range full.Predecessors(id) {
		if cur.HasNode(p) {
			e, err := full.Edge(p, id)
			if err != nil {
				return nil, err
			}
			rec.Preds = append(rec.Preds, p)
			op.PredCosts = append(op.PredCosts, float32(e.Cost))
		}
	}
	return op, nil
}

// mirrorInsertOp applies op to the reference network.
func mirrorInsertOp(g *graph.Network, op *netfile.InsertOp) error {
	rec := op.Rec
	if err := g.AddNode(graph.Node{ID: rec.ID, Pos: rec.Pos, Attrs: rec.Attrs}); err != nil {
		return err
	}
	for _, s := range rec.Succs {
		if err := g.AddEdge(graph.Edge{From: rec.ID, To: s.To, Cost: float64(s.Cost), Weight: 1}); err != nil {
			return err
		}
	}
	for i, p := range rec.Preds {
		if err := g.AddEdge(graph.Edge{From: p, To: rec.ID, Cost: float64(op.PredCosts[i]), Weight: 1}); err != nil {
			return err
		}
	}
	return nil
}

// Print writes both panels of Figure 7 (average I/O per insert; CRR).
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: reorganization policies during insertion of 20% of the nodes")
	fmt.Fprintf(w, "%-10s", "(cpu)")
	for _, s := range r.Series {
		fmt.Fprintf(w, " %13s", s.CPUTime.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	for _, panel := range []string{"avg I/O per insert", "CRR"} {
		fmt.Fprintf(w, "-- %s --\n", panel)
		if len(r.Series) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s", "inserts")
		for _, s := range r.Series {
			fmt.Fprintf(w, " %13s", s.Policy)
		}
		fmt.Fprintln(w)
		for i := range r.Series[0].InsertCounts {
			fmt.Fprintf(w, "%-10d", r.Series[0].InsertCounts[i])
			for _, s := range r.Series {
				v := 0.0
				if i < len(s.InsertCounts) {
					if panel == "CRR" {
						v = s.CRR[i]
					} else {
						v = s.AvgIO[i]
					}
				}
				fmt.Fprintf(w, " %13.4f", v)
			}
			fmt.Fprintln(w)
		}
	}
}
