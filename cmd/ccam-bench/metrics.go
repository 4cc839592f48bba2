package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"time"

	"ccam"
	"ccam/internal/graph"
)

// metricsOps lists the operations the metrics experiment drives and
// reports, in print order. Names match the registry's ccam_op_<name>_*
// instrument families.
var metricsOps = []string{
	"find",
	"get_successors",
	"evaluate_route",
	"range_query",
	"insert",
	"delete",
	"set_edge_cost",
	"find_batch",
}

// runMetrics builds an instrumented store, drives a mixed workload
// through it and prints the per-operation view of the metrics registry:
// operation counts, latency quantiles, page accesses per operation by
// class (node-index lookups vs CCAM data pages) and the buffer hit rate,
// plus the CRR/WCRR gauges and a sample of recorded traces.
func runMetrics(w io.Writer, g *graph.Network, seed int64, httpAddr string) error {
	st, err := ccam.OpenWith(
		ccam.WithPageSize(2048),
		ccam.WithPoolPages(4),
		ccam.WithSeed(seed),
		ccam.WithMetrics(),
		ccam.WithTracing(128),
	)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Build(g); err != nil {
		return err
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	ids := g.NodeIDs()
	pick := func() ccam.NodeID { return ids[rng.Intn(len(ids))] }

	// Point lookups and successor expansions.
	for i := 0; i < 400; i++ {
		if _, err := st.Find(ctx, pick()); err != nil {
			return err
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := st.GetSuccessors(ctx, pick()); err != nil {
			return err
		}
	}
	// Route evaluations over random walks.
	routes, err := ccam.RandomWalkRoutes(g, 64, 20, rng)
	if err != nil {
		return err
	}
	for _, r := range routes {
		if _, err := st.EvaluateRoute(ctx, r); err != nil {
			return err
		}
	}
	// Range queries over random windows.
	b := g.Bounds()
	for i := 0; i < 32; i++ {
		cx := b.Min.X + rng.Float64()*b.Width()
		cy := b.Min.Y + rng.Float64()*b.Height()
		win := ccam.NewRect(
			ccam.Point{X: cx - b.Width()/8, Y: cy - b.Height()/8},
			ccam.Point{X: cx + b.Width()/8, Y: cy + b.Height()/8},
		)
		if _, err := st.RangeQuery(ctx, win); err != nil {
			return err
		}
	}
	// Maintenance: delete and re-insert a handful of nodes, refresh
	// some edge costs, and run one parallel batch.
	for i := 0; i < 16; i++ {
		id := pick()
		op, err := ccam.InsertOpFromNode(g, id)
		if err != nil {
			return err
		}
		if err := st.Delete(id, ccam.SecondOrder); err != nil {
			return err
		}
		if err := st.Insert(op, ccam.SecondOrder); err != nil {
			return err
		}
	}
	for i := 0; i < 32; i++ {
		es := g.SuccessorEdges(pick())
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		if err := st.SetEdgeCost(e.From, e.To, float32(e.Cost)*1.1); err != nil {
			return err
		}
	}
	batch := make([]ccam.NodeID, 256)
	for i := range batch {
		batch[i] = pick()
	}
	if _, err := st.FindBatch(context.Background(), batch); err != nil {
		return err
	}

	printMetricsTable(w, st)

	if httpAddr != "" {
		ccam.ServeMetrics(nil, st)
		fmt.Fprintf(w, "\nserving /metrics, /metrics.json, /traces and /debug/pprof on %s (ctrl-c to stop)\n", httpAddr)
		return http.ListenAndServe(httpAddr, nil)
	}
	return nil
}

func printMetricsTable(w io.Writer, st *ccam.Store) {
	reg := st.Metrics()
	fmt.Fprintln(w, "Per-operation metrics (instrumented store, pool of 4 pages)")
	fmt.Fprintf(w, "%-14s %7s %7s %9s %9s %9s %9s %9s %8s\n",
		"op", "ops", "errs", "p50", "p95", "p99", "data/op", "idx/op", "hitrate")
	for _, op := range metricsOps {
		p := "ccam_op_" + op + "_"
		n := reg.Counter(p + "total").Value()
		if n == 0 {
			continue
		}
		errs := reg.Counter(p + "errors_total").Value()
		lat := reg.Histogram(p + "ns").Snapshot()
		data := reg.Counter(p+"data_reads_total").Value() + reg.Counter(p+"data_writes_total").Value()
		idx := reg.Counter(p + "index_pages_total").Value()
		hits := reg.Counter(p + "buffer_hits_total").Value()
		misses := reg.Counter(p + "buffer_misses_total").Value()
		rate := "idle"
		if hits+misses > 0 {
			rate = fmt.Sprintf("%.3f", float64(hits)/float64(hits+misses))
		}
		fmt.Fprintf(w, "%-14s %7d %7d %9s %9s %9s %9.2f %9.2f %8s\n",
			op, n, errs,
			fmtNanos(lat.P50()), fmtNanos(lat.P95()), fmtNanos(lat.P99()),
			float64(data)/float64(n), float64(idx)/float64(n), rate)
	}
	fmt.Fprintf(w, "\nclustering gauges: CRR=%.3f WCRR=%.3f\n",
		reg.Gauge("ccam_crr").Value(), reg.Gauge("ccam_wcrr").Value())

	traces := st.Traces(3)
	if len(traces) > 0 {
		fmt.Fprintln(w, "\nsample traces (newest first):")
		for _, tr := range traces {
			fmt.Fprintf(w, "  #%d %s %v (%d spans", tr.Seq, tr.Op, tr.Dur, len(tr.Spans))
			if tr.Dropped > 0 {
				fmt.Fprintf(w, ", %d dropped", tr.Dropped)
			}
			fmt.Fprintln(w, ")")
		}
	}
}

// fmtNanos renders a nanosecond bucket midpoint as a short duration.
func fmtNanos(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond / 4).String()
}
