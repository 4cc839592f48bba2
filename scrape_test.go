package ccam

// Every series that restates state kept elsewhere reads it when
// scraped: these tests hold each one to its source across the store's
// lifecycle, and scrape beside every kind of writer.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"ccam/internal/netfile"
)

// scrape renders the registry as the expvar JSON view, which calls
// every func-backed instrument once.
func scrape(t *testing.T, s *Store) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(s.Metrics().String()), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkFileSeries fails unless every series that restates the file's,
// the access method's or the log's state reads what its accessor
// reports now: the PAG summary's ratios, the pool's pins and overflow
// frames, the node index's overlay depth (all 0 unless the store holds
// a healthy, open file), the method's reorganization counts and the
// log's WALStats.
func checkFileSeries(t *testing.T, s *Store, step string) {
	t.Helper()
	want := map[string]float64{
		"ccam_crr": 0, "ccam_wcrr": 0, "ccam_snapshot_lag": 0,
		"ccam_snapshots_active": 0, "ccam_overlay_depth": 0, "ccam_buffer_overflow_frames": 0,
	}
	s.live(func(f *netfile.File) {
		if f == nil {
			return
		}
		st, p := f.PAG().Stats(), f.Pool()
		want["ccam_crr"], want["ccam_wcrr"] = st.CRR(), st.WCRR()
		want["ccam_snapshot_lag"] = float64(p.CommittedLSN() - p.VersionFloor())
		want["ccam_snapshots_active"] = float64(p.ActiveSnapshots())
		want["ccam_overlay_depth"] = float64(f.OverlayDepth())
		want["ccam_buffer_overflow_frames"] = float64(p.OverflowFrames())
	})
	s.mu.Lock()
	rs := s.m.ReorgStats()
	s.mu.Unlock()
	want["ccam_reorg_records_moved_total"] = float64(rs.RecordsMoved)
	want["ccam_reorg_kept_total"] = float64(rs.Kept)
	if ws := s.WALStats(); ws.Enabled {
		want["ccam_wal_fsyncs_total"] = float64(ws.Fsyncs)
		want["ccam_wal_checkpoints_total"] = float64(ws.Checkpoints)
		want["ccam_wal_bytes_since_checkpoint"] = float64(ws.BytesSinceCheckpoint)
		want["ccam_wal_appends_total"] = float64(s.wal.Appends())
		want["ccam_wal_bytes_total"] = float64(s.wal.BytesAppended())
	}
	got := scrape(t, s)
	for name, w := range want {
		if v, ok := got[name].(float64); !ok || v != w {
			t.Errorf("%s: %s = %v, its source reads %v", step, name, got[name], w)
		}
	}
	for op := opNone + 1; op < numOps; op++ {
		p := "ccam_op_" + opNames[op]
		total := got[p+"_total"].(float64)
		count := got[p+"_ns"].(map[string]any)["count"].(float64)
		if total != count {
			t.Errorf("%s: %s_total = %v, %s_ns counts %v", step, p, total, p, count)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// A pinned snapshot shows in ccam_snapshots_active before any commit,
// and once it closes neither it nor ccam_snapshot_lag reads it.
func TestSnapshotGaugesReadThePins(t *testing.T) {
	s, g := obsStore(t)
	reg := s.Metrics()
	active, lag := reg.Gauge("ccam_snapshots_active"), reg.Gauge("ccam_snapshot_lag")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v := active.Value(); v != 1 {
		t.Fatalf("ccam_snapshots_active with one snapshot pinned and no commit since = %v, want 1", v)
	}
	e := g.Edges()[0]
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, 7)); err != nil {
		t.Fatal(err)
	}
	if a, l := active.Value(), lag.Value(); a != 1 || l != 1 {
		t.Fatalf("one commit past the pin: ccam_snapshots_active = %v, ccam_snapshot_lag = %v, want 1 and 1", a, l)
	}
	snap.Close()
	if a, l := active.Value(), lag.Value(); a != 0 || l != 0 {
		t.Fatalf("after the snapshot closed: ccam_snapshots_active = %v, ccam_snapshot_lag = %v, want 0 and 0", a, l)
	}
}

// After each step of a store's life — Build, Apply, a snapshot pinned
// and closed, a reorganization round, a close, a reopen that replays
// the log — every file-derived series equals its accessor, and a
// closed store's file gauges read 0 while its counters keep their
// counts.
func TestFileSeriesEqualTheirSources(t *testing.T) {
	g := smallTestMap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ccam")
	opts := Options{
		PageSize: 1024, PoolPages: 4, Seed: 3, Path: path, WAL: true,
		SyncPolicy: SyncNone, Metrics: true, CheckpointBytes: 1 << 40,
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkFileSeries(t, s, "unbuilt")
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	checkFileSeries(t, s, "build")
	if s.wal.Appends() == 0 || s.wal.BytesAppended() == 0 {
		t.Fatalf("after Build the log counts %d appends of %d bytes", s.wal.Appends(), s.wal.BytesAppended())
	}
	s.reorg.drop = 1e-9
	ids := g.NodeIDs()
	for i, id := range ids[:8] {
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Delete(id, Policy(i%4))); err != nil {
			t.Fatal(err)
		}
		checkFileSeries(t, s, "apply delete")
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		checkFileSeries(t, s, "snapshot pinned")
		if err := s.Apply(context.Background(), new(Batch).Insert(op, Policy(i%4))); err != nil {
			t.Fatal(err)
		}
		checkFileSeries(t, s, "apply insert under a pin")
		snap.Close()
		checkFileSeries(t, s, "snapshot closed")
		if err := s.Poke(); err != nil {
			t.Fatal(err)
		}
		checkFileSeries(t, s, "poke")
	}
	if s.Metrics().Gauge("ccam_crr").Value() == 0 {
		t.Fatal("ccam_crr reads 0 on a built store")
	}

	// A crash image with the log's tail unreplayed, then a clean close.
	crash := filepath.Join(dir, "crash.ccam")
	crashCopy(t, path, crash)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkFileSeries(t, s, "closed")
	if v := s.Metrics().Counter("ccam_wal_appends_total").Value(); v == 0 {
		t.Fatal("a closed store's ccam_wal_appends_total reads 0")
	}

	r, err := OpenPath(crash, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ws := r.WALStats()
	if ws.ReplayedBatches == 0 {
		t.Fatal("the crash image replayed no batch")
	}
	checkFileSeries(t, r, "reopen")
	got := scrape(t, r)
	if got["ccam_wal_replayed_batches_total"] != float64(ws.ReplayedBatches) ||
		got["ccam_wal_replayed_mutations_total"] != float64(ws.ReplayedMutations) {
		t.Fatalf("replayed series %v/%v, WALStats %d/%d", got["ccam_wal_replayed_batches_total"],
			got["ccam_wal_replayed_mutations_total"], ws.ReplayedBatches, ws.ReplayedMutations)
	}
}

// A poisoned store keeps reporting its file's I/O counters, and its
// file gauges read 0 like its Len.
func TestIOAndGaugesOnPoisonedStore(t *testing.T) {
	g := smallTestMap(t)
	boom := errors.New("boom")
	var fail bool
	s, err := Open(Options{PageSize: 1024, PoolPages: 4, Seed: 3, Metrics: true,
		applyFaultHook: func(int) error {
			if fail {
				return boom
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetIO(); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.NodeIDs()[:32] {
		if _, err := s.Find(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	before := s.IO()
	if before.Reads == 0 {
		t.Fatal("no physical reads before the fault")
	}
	fail = true
	e := g.Edges()[0]
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, 9)); !errors.Is(err, boom) {
		t.Fatalf("apply error = %v, want the injected fault", err)
	}
	if s.Len() != 0 {
		t.Fatal("the fault did not poison the store")
	}
	if got := s.IO(); got.Reads < before.Reads {
		t.Fatalf("poisoned store IO reads %d, %d before the fault", got.Reads, before.Reads)
	}
	checkFileSeries(t, s, "poisoned")
}

// A scraper rendering both views beside Apply, Poke and snapshot churn
// races with nobody (run it under -race) and never deadlocks: the
// registry lock is released before a gauge takes the writer mutex.
func TestScrapeBesideWriters(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, PoolPages: 8, Seed: 5, Metrics: true})
	s.reorg.drop = 1e-9
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			s.Metrics().WriteTo(io.Discard)
			_ = s.Metrics().String()
		}
	}()
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			snap, err := s.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			_, err = snap.FindCtx(ctx, g.NodeIDs()[1]) // a node the writer leaves alone
			snap.Close()
			if err != nil && ctx.Err() == nil {
				t.Error(err)
				return
			}
		}
	}()
	ids := g.NodeIDs()
	for i := 0; i < 24; i++ {
		id := ids[i*len(ids)/24]
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Delete(id, Policy(i%4))); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Insert(op, Policy(i%4))); err != nil {
			t.Fatal(err)
		}
		if err := s.Poke(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	checkFileSeries(t, s, "after the churn")
}
