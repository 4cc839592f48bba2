package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ccam"
	"ccam/internal/graph"
)

// mutationConfig parameterizes the durable-mutation-throughput
// experiment.
type mutationConfig struct {
	// MaxWriters is the largest concurrent-writer count swept (the
	// -parallel flag); the sweep doubles from 1.
	MaxWriters int
	// OpsPerWriter is the number of committed one-op batches each
	// writer issues per cell.
	OpsPerWriter int
	// Seed drives the workload generator.
	Seed int64
}

// mutationCell is one measured (writers, sync policy) cell.
type mutationCell struct {
	opsPerSec float64
	// commits and fsyncs cover the timed mutation window only (the
	// Build-time checkpoint is subtracted out).
	commits, fsyncs int64
}

// runMutation measures durable commit throughput on the file-backed
// WAL store while sweeping concurrent writers across both sync
// policies. Apply releases the store latch before forcing the log, so
// under SyncGroupCommit concurrent committers coalesce into one fsync;
// the experiment's acceptance bar is group commit at 8 writers beating
// group commit at 1 writer, which fsyncs once per commit, by >= 2x.
func runMutation(w io.Writer, g *graph.Network, cfg mutationConfig) error {
	if cfg.MaxWriters < 1 {
		cfg.MaxWriters = 8
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 250
	}
	edges := g.Edges()
	if len(edges) == 0 {
		return fmt.Errorf("mutation: road map has no edges")
	}

	dir, err := os.MkdirTemp("", "ccam-mutation-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintln(w, "Durable mutation throughput: concurrent one-op batches (SetEdgeCost) on the file-backed WAL store")
	fmt.Fprintf(w, "%d commits per writer; group = group commit (one writer: one fsync per commit), none = no fsync on commit\n",
		cfg.OpsPerWriter)
	fmt.Fprintf(w, "%-8s  %12s  %12s  %10s  %8s  %10s\n",
		"writers", "group ops/s", "none ops/s", "grp/grp1", "fsyncs", "avg group")

	var base float64 // group commit at one writer
	for writers := 1; writers <= cfg.MaxWriters; writers *= 2 {
		group, err := runMutationCell(dir, g, edges, writers, cfg, ccam.SyncGroupCommit)
		if err != nil {
			return err
		}
		none, err := runMutationCell(dir, g, edges, writers, cfg, ccam.SyncNone)
		if err != nil {
			return err
		}
		if writers == 1 {
			base = group.opsPerSec
		}
		avg := "-"
		if group.fsyncs > 0 {
			avg = fmt.Sprintf("%.1f", float64(group.commits)/float64(group.fsyncs))
		}
		fmt.Fprintf(w, "%-8d  %12.0f  %12.0f  %9.2fx  %8d  %10s\n",
			writers, group.opsPerSec, none.opsPerSec, group.opsPerSec/base, group.fsyncs, avg)
	}
	return nil
}

// runMutationCell builds a fresh WAL-backed store on disk and drives
// `writers` goroutines, each committing one-op batches through the
// shared AccessMethod surface. It returns the committed throughput and
// the fsync count of the timed window.
func runMutationCell(dir string, g *graph.Network, edges []graph.Edge, writers int, cfg mutationConfig, pol ccam.SyncPolicy) (mutationCell, error) {
	s, err := ccam.Open(ccam.Options{
		PageSize:   2048,
		PoolPages:  64,
		Seed:       1,
		Path:       filepath.Join(dir, fmt.Sprintf("w%d-p%d.ccam", writers, pol)),
		WAL:        true,
		SyncPolicy: pol,
		// Metrics stay off: the registry refreshes the CRR/WCRR gauges
		// (an O(edges) scan) under the store latch after every commit,
		// which would swamp the fsync cost this experiment isolates.
		// WALStats counts fsyncs regardless.
		// Keep checkpoints out of the timed window too: the sweep
		// measures commit latency, not checkpoint cost.
		CheckpointBytes: 1 << 30,
	})
	if err != nil {
		return mutationCell{}, err
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		return mutationCell{}, err
	}
	setupFsyncs := s.WALStats().Fsyncs

	ctx := context.Background()
	errc := make(chan error, writers)
	start := time.Now()
	for id := 0; id < writers; id++ {
		go func(id int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			for i := 0; i < cfg.OpsPerWriter; i++ {
				e := edges[rng.Intn(len(edges))]
				b := new(ccam.Batch).SetEdgeCost(e.From, e.To, 1+99*rng.Float32())
				if err := s.Apply(ctx, b); err != nil {
					errc <- fmt.Errorf("writer %d: %w", id, err)
					return
				}
			}
			errc <- nil
		}(id)
	}
	var firstErr error
	for i := 0; i < writers; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	elapsed := time.Since(start)
	if firstErr != nil {
		return mutationCell{}, firstErr
	}

	commits := int64(writers * cfg.OpsPerWriter)
	cell := mutationCell{
		opsPerSec: float64(commits) / elapsed.Seconds(),
		commits:   commits,
		fsyncs:    s.WALStats().Fsyncs - setupFsyncs,
	}
	return cell, s.Close()
}
