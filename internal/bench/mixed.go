package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// MixedConfig parameterizes the mixed-workload experiment (ablation
// A7): the IVHS setting of paper §1.1 — a database "updated
// frequently" while route queries run — swept over the update fraction
// of the operation mix.
type MixedConfig struct {
	Setup Setup
	// BlockSize defaults to 2048.
	BlockSize int
	// Ops is the number of operations per run (default 600).
	Ops int
	// UpdateFracs are the swept fractions of operations that are
	// updates (default {0, 0.1, 0.3, 0.5}). Updates split evenly
	// between travel-time refreshes (SetEdgeCost) and node
	// delete+reinsert pairs under the second-order policy; the
	// remainder are route evaluations (L = 20).
	UpdateFracs []float64
	// Methods defaults to {ccam-s, dfs-am, grid-file}.
	Methods []string
}

// MixedResult holds average data-page accesses per operation.
type MixedResult struct {
	UpdateFracs []float64
	Methods     []string
	// PagesPerOp[method][i] corresponds to UpdateFracs[i].
	PagesPerOp map[string][]float64
	// FinalCRR[method][i] is the clustering quality left after the run.
	FinalCRR map[string][]float64
}

// RunMixedWorkload measures sustained cost under interleaved queries
// and updates. Each operation runs cold (buffer reset), counting
// reads+writes, so the number is comparable to the per-operation
// experiments.
func RunMixedWorkload(cfg MixedConfig) (*MixedResult, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 2048
	}
	if cfg.Ops == 0 {
		cfg.Ops = 600
	}
	if len(cfg.UpdateFracs) == 0 {
		cfg.UpdateFracs = []float64{0, 0.1, 0.3, 0.5}
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = []string{"ccam-s", "dfs-am", "grid-file"}
	}
	res := &MixedResult{
		UpdateFracs: cfg.UpdateFracs,
		Methods:     cfg.Methods,
		PagesPerOp:  map[string][]float64{},
		FinalCRR:    map[string][]float64{},
	}
	for _, name := range cfg.Methods {
		res.PagesPerOp[name] = make([]float64, len(cfg.UpdateFracs))
		res.FinalCRR[name] = make([]float64, len(cfg.UpdateFracs))
		for i, frac := range cfg.UpdateFracs {
			pages, crr, err := runMixed(name, frac, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: mixed %s@%.2f: %w", name, frac, err)
			}
			res.PagesPerOp[name][i] = pages
			res.FinalCRR[name][i] = crr
		}
	}
	return res, nil
}

func runMixed(name string, updateFrac float64, cfg MixedConfig) (float64, float64, error) {
	g, err := cfg.Setup.Network()
	if err != nil {
		return 0, 0, err
	}
	m, err := buildMethod(name, g, cfg.BlockSize, 64, cfg.Setup.Seed)
	if err != nil {
		return 0, 0, err
	}
	f := m.File()
	rng := rand.New(rand.NewSource(cfg.Setup.Seed + 17))
	routes, err := graph.RandomWalkRoutes(g, 64, 20, rng)
	if err != nil {
		return 0, 0, err
	}
	ids := g.NodeIDs()
	edges := g.Edges()

	var total int64
	for op := 0; op < cfg.Ops; op++ {
		if err := f.ResetIO(); err != nil {
			return 0, 0, err
		}
		switch {
		case rng.Float64() >= updateFrac:
			if _, err := f.EvaluateRouteCtx(context.Background(), routes[rng.Intn(len(routes))]); err != nil {
				return 0, 0, err
			}
		case rng.Intn(2) == 0:
			e := edges[rng.Intn(len(edges))]
			// The edge may have vanished with a deleted endpoint;
			// skip those.
			if !f.Has(e.From) || !f.Has(e.To) {
				continue
			}
			if err := f.SetEdgeCost(e.From, e.To, float32(e.Cost*(0.5+rng.Float64()))); err != nil {
				return 0, 0, err
			}
		default:
			x := ids[rng.Intn(len(ids))]
			if !f.Has(x) {
				continue
			}
			iop, err := netfile.InsertOpFromNode(g, x)
			if err != nil {
				return 0, 0, err
			}
			// Restrict to still-present endpoints.
			iop = restrictOpToFile(f, iop)
			if err := m.Delete(x, netfile.SecondOrder); err != nil {
				return 0, 0, err
			}
			if err := m.Insert(iop, netfile.SecondOrder); err != nil {
				return 0, 0, err
			}
		}
		if err := f.Flush(); err != nil {
			return 0, 0, err
		}
		st := f.DataIO()
		total += st.Reads + st.Writes
	}
	return float64(total) / float64(cfg.Ops), graph.CRR(g, f.Placement()), nil
}

// restrictOpToFile drops edges whose other endpoint is no longer
// stored.
func restrictOpToFile(f *netfile.File, op *netfile.InsertOp) *netfile.InsertOp {
	rec := op.Rec.Clone()
	var succs []netfile.SuccEntry
	for _, s := range rec.Succs {
		if f.Has(s.To) {
			succs = append(succs, s)
		}
	}
	rec.Succs = succs
	var preds []graph.NodeID
	var costs []float32
	for i, p := range rec.Preds {
		if f.Has(p) {
			preds = append(preds, p)
			costs = append(costs, op.PredCosts[i])
		}
	}
	rec.Preds = preds
	return &netfile.InsertOp{Rec: rec, PredCosts: costs}
}

// Print writes the mixed-workload table.
func (r *MixedResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation A7: mixed workload — avg data-page accesses per operation (block = 2k)")
	fmt.Fprintf(w, "%-11s", "method")
	for _, frac := range r.UpdateFracs {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("upd=%.0f%%", frac*100))
	}
	fmt.Fprintln(w)
	for _, m := range r.Methods {
		fmt.Fprintf(w, "%-11s", m)
		for i := range r.UpdateFracs {
			fmt.Fprintf(w, " %10.2f", r.PagesPerOp[m][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "final CRR after the run:")
	for _, m := range r.Methods {
		fmt.Fprintf(w, "%-11s", m)
		for i := range r.UpdateFracs {
			fmt.Fprintf(w, " %10.4f", r.FinalCRR[m][i])
		}
		fmt.Fprintln(w)
	}
}
