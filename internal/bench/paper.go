package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Cell is one number of a paper figure or ablation table: a page count,
// an I/O average, a CRR or a WCRR. Wall-clock columns are never cells;
// everything else an experiment reports is deterministic for a fixed
// Setup, so a cell that moves means the placement or an operation's page
// accesses moved.
type Cell struct {
	Experiment string  `json:"experiment"`
	Method     string  `json:"method"`
	Parameter  string  `json:"parameter"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// key identifies a cell within an artifact.
func (c Cell) key() string {
	return c.Experiment + "/" + c.Method + "/" + c.Parameter + "/" + c.Metric
}

// PaperArtifact is the machine-readable form of `ccam-bench -exp all`:
// the map it ran on and every cell, in table order. The committed
// BENCH_paper.json is one; -check regenerates it and compares.
type PaperArtifact struct {
	Seed    int64  `json:"seed"`
	MapSeed int64  `json:"map_seed"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Rows    []Cell `json:"rows"`
}

// WriteJSON writes the artifact, one indented row per cell. Values are
// written in Go's shortest round-trip form, so reading them back yields
// the same float64 bits.
func (a *PaperArtifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadPaperArtifact parses an artifact written by WriteJSON.
func ReadPaperArtifact(r io.Reader) (*PaperArtifact, error) {
	var a PaperArtifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("bench: paper artifact: %w", err)
	}
	return &a, nil
}

// Diff lists every difference between a (a fresh run) and want (the
// committed artifact), restricted to the experiments a ran: a different
// map or seed, a cell whose value moved, a cell only one side has. Values
// are compared exactly. An empty result means the run reproduces want.
func (a *PaperArtifact) Diff(want *PaperArtifact) []string {
	var out []string
	if a.Seed != want.Seed || a.MapSeed != want.MapSeed || a.Nodes != want.Nodes || a.Edges != want.Edges {
		out = append(out, fmt.Sprintf("setup: seed %d, map seed %d, %d nodes, %d edges; want seed %d, map seed %d, %d nodes, %d edges",
			a.Seed, a.MapSeed, a.Nodes, a.Edges, want.Seed, want.MapSeed, want.Nodes, want.Edges))
	}
	ran := map[string]bool{}
	got := map[string]float64{}
	for _, c := range a.Rows {
		ran[c.Experiment] = true
		got[c.key()] = c.Value
	}
	wanted := map[string]bool{}
	for _, c := range want.Rows {
		if !ran[c.Experiment] {
			continue
		}
		k := c.key()
		wanted[k] = true
		v, ok := got[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: missing, want %s", k, fmtValue(c.Value)))
		case v != c.Value:
			out = append(out, fmt.Sprintf("%s: %s, want %s", k, fmtValue(v), fmtValue(c.Value)))
		}
	}
	for _, c := range a.Rows {
		if !wanted[c.key()] {
			out = append(out, fmt.Sprintf("%s: %s, not in the artifact", c.key(), fmtValue(c.Value)))
		}
	}
	return out
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// cellsOf appends one cell per (method, parameter) pair of a table whose
// values are v(method, parameter index).
func cellsOf(out []Cell, metric string, methods, params []string, v func(m string, i int) float64) []Cell {
	for _, m := range methods {
		for i, p := range params {
			out = append(out, Cell{Method: m, Parameter: p, Metric: metric, Value: v(m, i)})
		}
	}
	return out
}

// labels formats each x as prefix=x.
func labels[T any](prefix string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%s=%v", prefix, x)
	}
	return out
}

// Cells implements the paper artifact for Figure 5.
func (r *Fig5Result) Cells() []Cell {
	blocks := labels("block", r.BlockSizes)
	out := cellsOf(nil, "crr", r.Methods, blocks, func(m string, i int) float64 { return r.CRR[m][r.BlockSizes[i]] })
	return cellsOf(out, "pages", r.Methods, blocks, func(m string, i int) float64 { return float64(r.Pages[m][r.BlockSizes[i]]) })
}

// Cells implements the paper artifact for Table 5: the measured and the
// predicted accesses of each operation, and the file's CRR, WCRR and
// page count.
func (r *Table5Result) Cells() []Cell {
	var out []Cell
	for _, row := range r.Rows {
		for _, c := range []struct {
			metric string
			v      float64
		}{
			{"get_successors", row.GetSuccsActual},
			{"get_successors_pred", row.GetSuccsPredicted},
			{"get_a_successor", row.GetASuccActual},
			{"get_a_successor_pred", row.GetASuccPredicted},
			{"delete", row.DeleteActual},
			{"delete_pred", row.DeletePredicted},
			{"insert", row.InsertActual},
			{"crr", row.Stats.CRR},
			{"wcrr", row.Stats.WCRR},
			{"pages", float64(row.Stats.Pages)},
		} {
			out = append(out, Cell{Method: row.Method, Metric: c.metric, Value: c.v})
		}
	}
	return out
}

// Cells implements the paper artifact for Figure 6.
func (r *Fig6Result) Cells() []Cell {
	out := cellsOf(nil, "pages_per_route", r.Methods, labels("L", r.RouteLengths),
		func(m string, i int) float64 { return r.PagesPerRoute[m][i] })
	for _, m := range r.Methods {
		out = append(out, Cell{Method: m, Metric: "wcrr", Value: r.WCRR[m]})
	}
	return out
}

// Cells implements the paper artifact for Figure 7 (and Ablation A5):
// the I/O and CRR panels, without the CPU-time row.
func (r *Fig7Result) Cells() []Cell {
	var out []Cell
	for _, s := range r.Series {
		inserts := labels("inserts", s.InsertCounts)
		for i, p := range inserts {
			out = append(out,
				Cell{Method: s.Policy.String(), Parameter: p, Metric: "avg_io", Value: s.AvgIO[i]},
				Cell{Method: s.Policy.String(), Parameter: p, Metric: "crr", Value: s.CRR[i]})
		}
	}
	return out
}

// Cells implements the paper artifact for Ablation A1, without the
// build-time column.
func (r *AblationPartitionerResult) Cells() []Cell {
	var out []Cell
	for _, row := range r.Rows {
		out = append(out,
			Cell{Method: row.Name, Metric: "crr", Value: row.CRR},
			Cell{Method: row.Name, Metric: "pages", Value: float64(row.Pages)},
			Cell{Method: row.Name, Metric: "avg_fill", Value: row.AvgFill})
	}
	return out
}

// Cells implements the paper artifact for Ablation A2.
func (r *AblationBufferResult) Cells() []Cell {
	return cellsOf(nil, "pages_per_route", r.Methods, labels("pool", r.PoolSizes),
		func(m string, i int) float64 { return r.PagesPerRoute[m][i] })
}

// Cells implements the paper artifact for Ablation A3, without the
// build-time column.
func (r *AblationScaleResult) Cells() []Cell {
	return cellsOf(nil, "crr", r.Methods, labels("nodes", r.Sizes),
		func(m string, i int) float64 { return r.CRR[m][i] })
}

// Cells implements the paper artifact for Ablation A4.
func (r *SearchPathsResult) Cells() []Cell {
	var out []Cell
	for _, m := range r.Methods {
		out = append(out,
			Cell{Method: m, Metric: "dijkstra_reads", Value: r.DijkstraReads[m]},
			Cell{Method: m, Metric: "astar_reads", Value: r.AStarReads[m]})
	}
	return append(out,
		Cell{Metric: "dijkstra_expanded", Value: r.DijkstraExpanded},
		Cell{Metric: "astar_expanded", Value: r.AStarExpanded})
}

// Cells implements the paper artifact for Ablation A6.
func (r *TopologyResult) Cells() []Cell {
	var out []Cell
	for _, topo := range r.Topologies {
		out = append(out,
			Cell{Parameter: topo, Metric: "nodes", Value: float64(r.Nodes[topo])},
			Cell{Parameter: topo, Metric: "edges", Value: float64(r.Edges[topo])})
		for _, m := range r.Methods {
			out = append(out, Cell{Method: m, Parameter: topo, Metric: "crr", Value: r.CRR[topo][m]})
		}
	}
	return out
}

// Cells implements the paper artifact for Ablation A7.
func (r *MixedResult) Cells() []Cell {
	fracs := labels("upd", r.UpdateFracs)
	out := cellsOf(nil, "pages_per_op", r.Methods, fracs, func(m string, i int) float64 { return r.PagesPerOp[m][i] })
	return cellsOf(out, "final_crr", r.Methods, fracs, func(m string, i int) float64 { return r.FinalCRR[m][i] })
}

// Cells implements the paper artifact for Ablation A8.
func (r *SpatialOrderResult) Cells() []Cell {
	return cellsOf(nil, "crr", r.Methods, labels("block", r.BlockSizes),
		func(m string, i int) float64 { return r.CRR[m][r.BlockSizes[i]] })
}
