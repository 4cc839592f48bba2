package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccam"
	"ccam/internal/graph"
)

// mixedConfig parameterizes the mixed read/write experiment.
type mixedConfig struct {
	// Duration is the measured window.
	Duration time.Duration
	// Readers and Writers are the concurrent goroutine counts.
	Readers, Writers int
	// Seed drives the workloads.
	Seed int64
	// JSONPath, when set, receives the machine-readable result.
	JSONPath string
	// Check enforces the regression gates.
	Check bool
}

// mixedCell is the measured window: reader latency quantiles and
// throughput alongside the concurrent writers' commit rate.
type mixedCell struct {
	ReadOps        int64   `json:"read_ops"`
	ReadOpsPerSec  float64 `json:"read_ops_per_sec"`
	ReadP50Micros  float64 `json:"read_p50_us"`
	ReadP95Micros  float64 `json:"read_p95_us"`
	ReadP99Micros  float64 `json:"read_p99_us"`
	ReadMaxMicros  float64 `json:"read_max_us"`
	WriteOps       int64   `json:"write_ops"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	// ReadsPerOp is physical data-page reads per read operation — the
	// (inverse) buffer hit rate. The committed BENCH_mixed.json figures
	// were taken with every read served from the pool; a run is only
	// comparable with them at the same hit rate.
	ReadsPerOp float64 `json:"reads_per_op"`
	// FlushedPages counts physical page writes during the window: the
	// in-latch checkpoint volume the writers generated.
	FlushedPages int64 `json:"flushed_pages"`
}

// mixedReorg is the result of the churn-and-recover phase: the
// background incremental reorganizer must win back at least half of
// the CRR the churn destroyed while concurrent readers keep running.
type mixedReorg struct {
	CRRBuild     float64 `json:"crr_build"`
	CRRDecayed   float64 `json:"crr_decayed"`
	CRRRecovered float64 `json:"crr_recovered"`
	Rounds       int64   `json:"rounds"`
	Pages        int64   `json:"pages"`
	ReaderOps    int64   `json:"reader_ops"`
	ReaderErrors int64   `json:"reader_errors"`
}

// mixedResult is the experiment's machine-readable artifact.
type mixedResult struct {
	Nodes    int        `json:"nodes"`
	Edges    int        `json:"edges"`
	Readers  int        `json:"readers"`
	Writers  int        `json:"writers"`
	Duration string     `json:"duration"`
	MVCC     mixedCell  `json:"mvcc"`
	Reorg    mixedReorg `json:"reorg"`
}

// runMixed measures the reader-side cost of writer traffic — readers
// pin an LSN and never wait on writer I/O — then drives the
// decay-and-recover reorganizer phase. The store runs on a simulated
// disk (Options.SyncLatency) so the writers' in-latch checkpoint I/O
// costs milliseconds, the paper's disk-resident regime. The A/B against
// readers that share the store latch with Apply (557x reader p99, 9.3x
// read throughput) is committed in BENCH_mixed.json; that mode is gone.
func runMixed(w io.Writer, g *graph.Network, cfg mixedConfig) error {
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 4
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	dir, err := os.MkdirTemp("", "ccam-mixed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	res := mixedResult{
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Readers: cfg.Readers, Writers: cfg.Writers,
		Duration: cfg.Duration.String(),
	}
	fmt.Fprintf(w, "Mixed workload: %d paced readers (16-hop walks) vs %d writers (durable 128-op batches + checkpoint, 2ms simulated sync), %s\n",
		cfg.Readers, cfg.Writers, cfg.Duration)
	fmt.Fprintf(w, "%12s  %10s  %10s  %10s  %10s  %12s  %9s\n",
		"read ops/s", "p50 us", "p95 us", "p99 us", "max us", "write ops/s", "reads/op")
	cell, err := runMixedCell(dir, g, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%12.0f  %10.1f  %10.1f  %10.1f  %10.1f  %12.0f  %9.4f\n",
		cell.ReadOpsPerSec, cell.ReadP50Micros, cell.ReadP95Micros,
		cell.ReadP99Micros, cell.ReadMaxMicros, cell.WriteOpsPerSec, cell.ReadsPerOp)
	res.MVCC = cell

	reorg, err := runMixedReorg(g, cfg)
	if err != nil {
		return err
	}
	res.Reorg = reorg
	fmt.Fprintf(w, "reorganizer: CRR %.4f -> %.4f (churn) -> %.4f after %d rounds / %d pages; %d concurrent reads, %d errors\n",
		reorg.CRRBuild, reorg.CRRDecayed, reorg.CRRRecovered,
		reorg.Rounds, reorg.Pages, reorg.ReaderOps, reorg.ReaderErrors)

	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.JSONPath)
	}
	if cfg.Check {
		if err := res.Check(); err != nil {
			return err
		}
		fmt.Fprintln(w, "check passed: reads served from the pool beside the writers; reorganizer recovered >= half the CRR decay under live readers")
	}
	return nil
}

// Check enforces the experiment's regression gates.
func (r *mixedResult) Check() error {
	if r.MVCC.ReadOps == 0 {
		return fmt.Errorf("mixed: no read completed beside the writers")
	}
	if r.MVCC.ReadsPerOp > 0.05 {
		return fmt.Errorf("mixed: %.4f physical reads/op, want essentially every read served from the pool",
			r.MVCC.ReadsPerOp)
	}
	decay := r.Reorg.CRRBuild - r.Reorg.CRRDecayed
	if decay < 0.03 {
		return fmt.Errorf("mixed: churn decayed CRR only %.4f -> %.4f; phase inconclusive",
			r.Reorg.CRRBuild, r.Reorg.CRRDecayed)
	}
	if target := r.Reorg.CRRDecayed + 0.5*decay; r.Reorg.CRRRecovered < target {
		return fmt.Errorf("mixed: reorganizer recovered CRR %.4f -> %.4f, want >= %.4f",
			r.Reorg.CRRDecayed, r.Reorg.CRRRecovered, target)
	}
	if r.Reorg.Rounds == 0 {
		return fmt.Errorf("mixed: recovery asserted but no reorganization rounds ran")
	}
	if r.Reorg.ReaderErrors > 0 {
		return fmt.Errorf("mixed: %d concurrent reads failed during reorganization", r.Reorg.ReaderErrors)
	}
	if r.Reorg.ReaderOps == 0 {
		return fmt.Errorf("mixed: no concurrent reads ran during reorganization")
	}
	return nil
}

// runMixedCell builds a fresh WAL-backed store and drives the mixed
// workload.
func runMixedCell(dir string, g *graph.Network, cfg mixedConfig) (mixedCell, error) {
	s, err := ccam.Open(ccam.Options{
		PageSize:  2048,
		PoolPages: 512,
		Seed:      1,
		Path:      filepath.Join(dir, "mvcc.ccam"),
		WAL:       true,
		// Group commit keeps the commit fsync outside the store latch;
		// the in-latch I/O is the checkpoint (WAL sync + data-file sync)
		// behind every batch.
		SyncPolicy: ccam.SyncGroupCommit,
		// The paper's regime is disk-resident: an fsync costs
		// milliseconds, not the tens of microseconds a modern local
		// ext4 charges. The simulated sync latency restores that
		// regime (the throughput experiment does the same for reads
		// via ReadLatency) — without it the tails drown in single-core
		// scheduler noise.
		SyncLatency: 2 * time.Millisecond,
	})
	if err != nil {
		return mixedCell{}, err
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		return mixedCell{}, err
	}
	ids := g.NodeIDs()
	edges := g.Edges()
	if len(edges) == 0 {
		return mixedCell{}, fmt.Errorf("mixed: road map has no edges")
	}

	ctx := context.Background()
	ioBefore := s.IO()
	var stop atomic.Bool
	var writeOps int64
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Readers+cfg.Writers)
	lats := make([][]int64, cfg.Readers)

	for i := 0; i < cfg.Writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			for !stop.Load() {
				// 128 updates per commit: the batch dirties pages across
				// the whole file and pushes the log over the checkpoint
				// bound every commit, so every Apply carries an in-latch
				// pool flush.
				b := new(ccam.Batch)
				for k := 0; k < 128; k++ {
					e := edges[rng.Intn(len(edges))]
					b.SetEdgeCost(e.From, e.To, float32(1+rng.Intn(1000)))
				}
				if err := s.Apply(ctx, b); err != nil {
					errc <- fmt.Errorf("mixed writer: %w", err)
					return
				}
				// Checkpoint behind every batch: aggressive
				// checkpointing keeps the log short (instant recovery)
				// and its flush+prune runs under the store latch — writer
				// I/O that snapshot readers never see.
				if err := s.Checkpoint(); err != nil {
					errc <- fmt.Errorf("mixed checkpoint: %w", err)
					return
				}
				atomic.AddInt64(&writeOps, 128)
			}
		}(i)
	}
	for i := 0; i < cfg.Readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
			samples := make([]int64, 0, 1<<18)
			for !stop.Load() {
				// One sample is a 16-hop network walk — the shape of an
				// aggregate route evaluation — so each op crosses the
				// read path 16 times and feels a writer stall anywhere
				// along it.
				id := ids[rng.Intn(len(ids))]
				t0 := time.Now()
				for hop := 0; hop < 16; hop++ {
					rec, err := s.Find(ctx, id)
					if err != nil {
						errc <- fmt.Errorf("mixed reader: %w", err)
						return
					}
					if len(rec.Succs) == 0 {
						id = ids[rng.Intn(len(ids))]
						continue
					}
					id = rec.Succs[rng.Intn(len(rec.Succs))].To
				}
				samples = append(samples, int64(time.Since(t0)))
				// Closed-loop pacing: think time between walks bounds
				// each reader's arrival rate. Without it the readers
				// spin, and the millions of samples they bank during
				// uncontended gaps bury the stalled walks far below the
				// p99 mark no matter how long the stalls are — the
				// spin also monopolizes the CPU, starving the writers
				// whose latch holds the experiment wants to measure.
				time.Sleep(time.Millisecond)
			}
			lats[i] = samples
		}(i)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errc:
		return mixedCell{}, err
	default:
	}

	var all []int64
	for _, s := range lats {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / 1e3
	}
	cell := mixedCell{
		ReadOps:        int64(len(all)),
		ReadOpsPerSec:  float64(len(all)) / elapsed,
		ReadP50Micros:  q(0.50),
		ReadP95Micros:  q(0.95),
		ReadP99Micros:  q(0.99),
		ReadMaxMicros:  q(1.0),
		WriteOps:       writeOps,
		WriteOpsPerSec: float64(writeOps) / elapsed,
		FlushedPages:   s.IO().Writes - ioBefore.Writes,
	}
	if cell.ReadOps > 0 {
		cell.ReadsPerOp = float64(s.IO().Reads-ioBefore.Reads) / float64(cell.ReadOps)
	}
	return cell, nil
}

// runMixedReorg decays the clustering with foreign-node churn (page
// splits scatter the original records; the map's own edges never
// change) and then drives the background reorganizer by hand while
// reader goroutines keep traversing: recovery must reach at least half
// of the lost CRR without a single failed read.
func runMixedReorg(g *graph.Network, cfg mixedConfig) (mixedReorg, error) {
	s, err := ccam.Open(ccam.Options{
		PageSize:        1024,
		Seed:            7,
		Metrics:         true, // for the round and page counters below
		BackgroundReorg: true,
		// The timer must not race the measurement; every round comes
		// from an explicit Poke below.
		ReorgInterval:    time.Hour,
		ReorgMaxPages:    64,
		ReorgTriggerDrop: 0.005,
	})
	if err != nil {
		return mixedReorg{}, err
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		return mixedReorg{}, err
	}
	var r mixedReorg
	r.CRRBuild = s.CRR(g)
	s.Poke() // records the post-Build CRR as the trigger's high-water mark

	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(cfg.Seed))
	foreign := ccam.NodeID(1 << 20)
	churn := func(k int) error {
		start := foreign
		for i := 0; i < k; i++ {
			id := foreign
			foreign++
			anchor := ids[rng.Intn(len(ids))]
			node, err := g.Node(anchor)
			if err != nil {
				return err
			}
			rec := &ccam.Record{
				ID:    id,
				Pos:   node.Pos,
				Succs: []ccam.SuccEntry{{To: anchor, Cost: 1}},
				Preds: []ccam.NodeID{ids[rng.Intn(len(ids))]},
			}
			if err := s.Insert(&ccam.InsertOp{Rec: rec, PredCosts: []float32{1}}, ccam.FirstOrder); err != nil {
				return err
			}
		}
		for id := start; id < foreign; id++ {
			if err := s.Delete(id, ccam.FirstOrder); err != nil {
				return err
			}
		}
		return nil
	}
	if err := churn(len(ids)); err != nil {
		return mixedReorg{}, err
	}
	for tries := 0; s.CRR(g) > r.CRRBuild-0.05 && tries < 6; tries++ {
		if err := churn(len(ids) / 2); err != nil {
			return mixedReorg{}, err
		}
	}
	r.CRRDecayed = s.CRR(g)

	// Readers traverse while the reorganizer runs; any error or torn
	// read would surface here.
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(cfg.Seed + 200 + int64(i)))
			for !stop.Load() {
				id := ids[rrng.Intn(len(ids))]
				if _, err := s.GetSuccessors(ctx, id); err != nil {
					atomic.AddInt64(&r.ReaderErrors, 1)
				}
				atomic.AddInt64(&r.ReaderOps, 1)
			}
		}(i)
	}
	target := r.CRRDecayed + 0.5*(r.CRRBuild-r.CRRDecayed)
	for i := 0; i < 80 && s.CRR(g) < target; i++ {
		s.Poke()
	}
	stop.Store(true)
	wg.Wait()
	r.CRRRecovered = s.CRR(g)
	reg := s.Metrics()
	r.Rounds = reg.Counter("ccam_reorg_rounds_total").Value()
	r.Pages = reg.Counter("ccam_reorg_pages_total").Value()
	return r, nil
}
