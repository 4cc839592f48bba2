package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"ccam/internal/costmodel"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// Table5Config parameterizes the network-operation cost experiment
// (paper Table 5).
type Table5Config struct {
	Setup      Setup
	BlockSize  int      // default 1024, as in the paper
	SampleFrac float64  // default 0.5 ("randomly chosen 50% of nodes")
	Methods    []string // default {ccam-s, dfs-am, grid-file, bfs-am}
}

// Table5Row is one method's measurements: actual and model-predicted
// data-page accesses per operation.
type Table5Row struct {
	Method string
	Stats  NetworkStats

	GetSuccsActual, GetSuccsPredicted float64
	GetASuccActual, GetASuccPredicted float64
	DeleteActual, DeletePredicted     float64
	InsertActual                      float64
}

// Table5Result is the full table.
type Table5Result struct {
	Rows []Table5Row
}

// RunTable5 reproduces Table 5: average data-page accesses of
// Get-successors(), Get-A-successor(), Delete() and Insert() on a
// random 50% node sample, with the cost-model predictions alongside.
// Page underflows/overflows are bypassed during Delete measurement (the
// paper ignores them "to filter out the effect of reorganization
// policies, which are studied separately").
func RunTable5(cfg Table5Config) (*Table5Result, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	if cfg.SampleFrac == 0 {
		cfg.SampleFrac = 0.5
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = []string{"ccam-s", "dfs-am", "grid-file", "bfs-am"}
	}
	g, err := cfg.Setup.Network()
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for _, name := range cfg.Methods {
		row, err := runTable5Method(name, g, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: table5 %s: %w", name, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func runTable5Method(name string, g *graph.Network, cfg Table5Config) (*Table5Row, error) {
	m, err := buildMethod(name, g, cfg.BlockSize, 64, cfg.Setup.Seed)
	if err != nil {
		return nil, err
	}
	f := m.File()
	st := StatsOf(m, g)
	params := costmodel.Params{Alpha: st.CRR, AvgA: st.AvgA, Lambda: st.Lambda, Gamma: st.Gamma}
	row := &Table5Row{
		Method:            m.Name(),
		Stats:             st,
		GetSuccsPredicted: costmodel.GetSuccessors(params),
		GetASuccPredicted: costmodel.GetASuccessor(params),
		DeletePredicted:   costmodel.DeleteTotal(params, costmodel.SecondOrder),
	}
	rng := rand.New(rand.NewSource(cfg.Setup.Seed + 1))
	sample := sampleNodes(g, cfg.SampleFrac, rng)

	// --- Get-successors: page of x assumed in memory.
	var acc int64
	for _, x := range sample {
		if err := f.ResetIO(); err != nil {
			return nil, err
		}
		if _, err := f.Find(x); err != nil {
			return nil, err
		}
		base := f.DataIO().Reads
		if _, err := f.GetSuccessorsCtx(context.Background(), x); err != nil {
			return nil, err
		}
		acc += f.DataIO().Reads - base
	}
	row.GetSuccsActual = float64(acc) / float64(len(sample))

	// --- Get-A-successor: one random successor per sampled node.
	acc = 0
	counted := 0
	for _, x := range sample {
		succs := g.Successors(x)
		if len(succs) == 0 {
			continue
		}
		target := succs[rng.Intn(len(succs))]
		if err := f.ResetIO(); err != nil {
			return nil, err
		}
		rec, err := f.Find(x)
		if err != nil {
			return nil, err
		}
		base := f.DataIO().Reads
		if _, err := f.GetASuccessor(rec, target); err != nil {
			return nil, err
		}
		acc += f.DataIO().Reads - base
		counted++
	}
	if counted > 0 {
		row.GetASuccActual = float64(acc) / float64(counted)
	}

	// --- Delete: uniform protocol on the shared file (reorganization
	// and underflow handling bypassed); cost = reads + writes. The
	// node is silently restored to its original page afterwards.
	acc = 0
	for _, x := range sample {
		op, err := netfile.InsertOpFromNode(g, x)
		if err != nil {
			return nil, err
		}
		pid, err := f.PageOf(x)
		if err != nil {
			return nil, err
		}
		if err := f.ResetIO(); err != nil {
			return nil, err
		}
		rec, err := f.DeleteRecord(x)
		if err != nil {
			return nil, err
		}
		if err := f.RemoveNeighborLinks(rec); err != nil {
			return nil, err
		}
		if err := f.Flush(); err != nil {
			return nil, err
		}
		io := f.DataIO()
		acc += io.Reads + io.Writes
		// Restore (uncounted).
		if err := f.InsertRecordAt(rec, pid); err != nil {
			return nil, fmt.Errorf("restore %d: %w", x, err)
		}
		if err := f.UpdateNeighborLinks(op, nil); err != nil {
			return nil, fmt.Errorf("restore links %d: %w", x, err)
		}
	}
	row.DeleteActual = float64(acc) / float64(len(sample))

	// --- Insert: measured with a hold-out protocol. The paper's insert
	// observation ("the spatial proximity of the neighbors of the new
	// node being inserted helps the Grid file") concerns genuinely new
	// nodes, whose neighbors were never co-clustered around them.
	// Deleting and re-inserting the same node would leave its neighbors
	// pre-clustered and mask the effect, so instead the file is rebuilt
	// without a random 10% of the nodes and their insertion is
	// measured.
	insertCost, err := measureHoldOutInsert(name, g, cfg, rng)
	if err != nil {
		return nil, err
	}
	row.InsertActual = insertCost
	return row, nil
}

// measureHoldOutInsert builds the method on the network minus a random
// 10% of nodes and returns the average reads+writes of inserting the
// held-out nodes (first-order policy).
func measureHoldOutInsert(name string, g *graph.Network, cfg Table5Config, rng *rand.Rand) (float64, error) {
	ids := g.NodeIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nHold := len(ids) / 10
	if nHold < 1 {
		nHold = 1
	}
	held := ids[:nHold]
	base := g.Clone()
	for _, id := range held {
		base.RemoveNode(id)
	}
	m, err := buildMethod(name, base, cfg.BlockSize, 64, cfg.Setup.Seed)
	if err != nil {
		return 0, err
	}
	f := m.File()
	cur := base.Clone()
	var acc int64
	for _, x := range held {
		op, err := restrictedInsertOp(g, cur, x)
		if err != nil {
			return 0, err
		}
		if err := f.ResetIO(); err != nil {
			return 0, err
		}
		if err := m.Insert(op, netfile.FirstOrder); err != nil {
			return 0, fmt.Errorf("hold-out insert %d: %w", x, err)
		}
		if err := f.Flush(); err != nil {
			return 0, err
		}
		io := f.DataIO()
		acc += io.Reads + io.Writes
		if err := mirrorInsertOp(cur, op); err != nil {
			return 0, err
		}
	}
	return float64(acc) / float64(len(held)), nil
}

// Print writes the result in the paper's Table 5 layout.
func (r *Table5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 5: I/O cost for network operations (block = 1k, 50% node sample)")
	fmt.Fprintf(w, "%-11s %9s %9s | %9s %9s | %9s %9s | %9s | %8s\n",
		"method", "GetSuccs", "pred", "GetASucc", "pred", "Delete", "pred", "Insert", "CRR")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11s %9.3f %9.3f | %9.3f %9.3f | %9.3f %9.3f | %9.3f | %8.4f\n",
			row.Method,
			row.GetSuccsActual, row.GetSuccsPredicted,
			row.GetASuccActual, row.GetASuccPredicted,
			row.DeleteActual, row.DeletePredicted,
			row.InsertActual, row.Stats.CRR)
	}
	if len(r.Rows) > 0 {
		st := r.Rows[0].Stats
		fmt.Fprintf(w, "|A| = %.3f  lambda = %.2f  gamma = %.2f (CCAM file)\n", st.AvgA, st.Lambda, st.Gamma)
	}
}
