package ccam

// Tests of the durable write path: WAL-backed stores, transactional
// Apply, group commit and recovery from crash copies. The crash drill
// that cuts the log at every record boundary, inside every record and
// inside every commit's write is internal/waldrill (TestDrillSmall).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// walModel mirrors the logical contents of a store: node -> successor
// -> cost.
type walModel map[NodeID]map[NodeID]float32

func (m walModel) clone() walModel {
	out := make(walModel, len(m))
	for id, succs := range m {
		cp := make(map[NodeID]float32, len(succs))
		for to, c := range succs {
			cp[to] = c
		}
		out[id] = cp
	}
	return out
}

func modelFromNetwork(g *Network) walModel {
	m := make(walModel)
	for _, id := range g.NodeIDs() {
		m[id] = make(map[NodeID]float32)
	}
	for _, e := range g.Edges() {
		m[e.From][e.To] = float32(e.Cost)
	}
	return m
}

// applyBatch replays generated ops onto the model.
func (m walModel) applyBatch(ops []modelOp) {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case mutInsertNode:
			rec := op.insert.Rec
			m[rec.ID] = make(map[NodeID]float32)
			for _, sc := range rec.Succs {
				m[rec.ID][sc.To] = sc.Cost
			}
			for j, p := range rec.Preds {
				m[p][rec.ID] = op.insert.PredCosts[j]
			}
		case mutDeleteNode:
			delete(m, op.id)
			for _, succs := range m {
				delete(succs, op.id)
			}
		case mutInsertEdge, mutSetEdgeCost:
			m[op.from][op.to] = op.cost
		case mutDeleteEdge:
			delete(m[op.from], op.to)
		}
	}
}

// storeModel reads the store's logical contents through Scan.
func storeModel(t *testing.T, s *Store) walModel {
	t.Helper()
	m := make(walModel)
	err := s.Scan(func(rec *Record) bool {
		succs := make(map[NodeID]float32, len(rec.Succs))
		for _, sc := range rec.Succs {
			succs[sc.To] = sc.Cost
		}
		m[rec.ID] = succs
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return m
}

func diffModels(want, got walModel) error {
	for id, wsucc := range want {
		gsucc, ok := got[id]
		if !ok {
			return fmt.Errorf("node %d lost", id)
		}
		if len(gsucc) != len(wsucc) {
			return fmt.Errorf("node %d: %d successors, want %d", id, len(gsucc), len(wsucc))
		}
		for to, wc := range wsucc {
			gc, ok := gsucc[to]
			if !ok {
				return fmt.Errorf("edge %d->%d lost", id, to)
			}
			if gc != wc {
				return fmt.Errorf("edge %d->%d cost %g, want %g", id, to, gc, wc)
			}
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			return fmt.Errorf("phantom node %d", id)
		}
	}
	return nil
}

// modelOp is the generator's own record of one queued op, replayed
// onto the model; kind selects which fields matter.
type modelOp struct {
	kind     int
	insert   *InsertOp
	id       NodeID
	from, to NodeID
	cost     float32
}

// mut kinds re-spelled locally to keep the test generator readable.
const (
	mutInsertNode  = 1
	mutDeleteNode  = 2
	mutInsertEdge  = 3
	mutDeleteEdge  = 4
	mutSetEdgeCost = 5
)

// genBatch produces one consistent batch of 1..3 ops against the model,
// updating the model as it goes. Every op that takes a policy runs
// under policy.
func genBatch(rng *rand.Rand, m walModel, nextID *NodeID, policy Policy) (*Batch, []modelOp) {
	ids := func() []NodeID {
		out := make([]NodeID, 0, len(m))
		for id := range m {
			out = append(out, id)
		}
		// Deterministic order for the rng picks.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	b := new(Batch)
	var ops []modelOp
	n := 1 + rng.Intn(3)
	for len(ops) < n {
		all := ids()
		if len(all) < 4 {
			break
		}
		var op modelOp
		switch k := rng.Intn(10); {
		case k < 5: // set-edge-cost
			from := all[rng.Intn(len(all))]
			if len(m[from]) == 0 {
				continue
			}
			var to NodeID
			pick, i := rng.Intn(len(m[from])), 0
			for t := range m[from] {
				if i == pick {
					to = t
					break
				}
				i++
			}
			cost := float32(1 + rng.Intn(100))
			b.SetEdgeCost(from, to, cost)
			op = modelOp{kind: mutSetEdgeCost, from: from, to: to, cost: cost}
		case k < 7: // insert-edge
			from := all[rng.Intn(len(all))]
			to := all[rng.Intn(len(all))]
			if from == to {
				continue
			}
			if _, dup := m[from][to]; dup {
				continue
			}
			cost := float32(1 + rng.Intn(100))
			b.InsertEdge(from, to, cost, policy)
			op = modelOp{kind: mutInsertEdge, from: from, to: to, cost: cost}
		case k < 8: // delete-edge
			from := all[rng.Intn(len(all))]
			if len(m[from]) == 0 {
				continue
			}
			var to NodeID
			pick, i := rng.Intn(len(m[from])), 0
			for t := range m[from] {
				if i == pick {
					to = t
					break
				}
				i++
			}
			b.DeleteEdge(from, to, policy)
			op = modelOp{kind: mutDeleteEdge, from: from, to: to}
		case k < 9: // insert-node with one succ and one pred
			succ := all[rng.Intn(len(all))]
			pred := all[rng.Intn(len(all))]
			id := *nextID
			*nextID++
			rec := &Record{
				ID:    id,
				Pos:   Point{X: float64(rng.Intn(100)), Y: float64(rng.Intn(100))},
				Succs: []SuccEntry{{To: succ, Cost: float32(1 + rng.Intn(50))}},
				Preds: []NodeID{pred},
			}
			iop := &InsertOp{Rec: rec, PredCosts: []float32{float32(1 + rng.Intn(50))}}
			b.Insert(iop, policy)
			op = modelOp{kind: mutInsertNode, insert: iop}
		default: // delete-node
			id := all[rng.Intn(len(all))]
			b.Delete(id, policy)
			op = modelOp{kind: mutDeleteNode, id: id}
		}
		ops = append(ops, op)
		one := []modelOp{op}
		m.applyBatch(one)
	}
	return b, ops
}

// crashCopy copies the data file at path and its WAL segments to dst,
// as a crash would leave them. Call it while the store is open: Close
// checkpoints and prunes the log.
func crashCopy(t *testing.T, path, dst string) {
	t.Helper()
	if err := storage.CopyStore(dst, path); err != nil {
		t.Fatal(err)
	}
}

// walSegmentSize returns the size of the one segment in the log of the
// store at path.
func walSegmentSize(t *testing.T, path string) int64 {
	t.Helper()
	segs, err := os.ReadDir(storage.WALDir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("log holds %d segments, want 1", len(segs))
	}
	info, err := segs[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func smallTestMap(t *testing.T) *Network {
	t.Helper()
	opts := MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 8, 8
	g, err := RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWALStoreBuildCloseReopen(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{PageSize: 1024, Path: path, WAL: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	want := storeModel(t, s)
	st := s.WALStats()
	if !st.Enabled || st.AppendedLSN == 0 {
		t.Fatalf("wal stats after build = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.WALStats().Enabled {
		t.Fatal("WAL not auto-detected on reopen")
	}
	if err := diffModels(want, storeModel(t, r)); err != nil {
		t.Fatal(err)
	}
	// Mutations still work and log after the reopen.
	if err := r.Apply(context.Background(), new(Batch).SetEdgeCost(g.Edges()[0].From, g.Edges()[0].To, 123)); err != nil {
		t.Fatal(err)
	}
}

func TestWALReplayAfterSimulatedCrash(t *testing.T) {
	g := smallTestMap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ccam")
	s, err := Open(Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	model := modelFromNetwork(g)
	rng := rand.New(rand.NewSource(7))
	nextID := NodeID(100000)
	for i := 0; i < 40; i++ {
		b, _ := genBatch(rng, model, &nextID, FirstOrder)
		if b.Len() == 0 {
			continue
		}
		if err := s.Apply(context.Background(), b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}

	// Crash simulation: copy the data file and the log while the store
	// is still open (nothing was checkpointed since Build, so the data
	// file is exactly the post-Build image and all mutations live only
	// in the log).
	crash := filepath.Join(dir, "crash", "net.ccam")
	crashCopy(t, path, crash)
	s.Close()

	r, err := OpenPath(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.WALStats().ReplayedBatches == 0 {
		t.Fatal("no batches replayed after simulated crash")
	}
	if err := diffModels(model, storeModel(t, r)); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
}

// TestWALHoldsOnlyWhatReplayReads commits batches under the
// reorganizing policies, with a reorganizer round offered after each,
// and reads the log back. Each batch reaches the log in one write:
// while its ops run, the segment holds nothing past the previous
// commit. Past the last checkpoint the log must hold what replay reads
// and nothing else: one mutation record of a logical kind per op and
// one commit per batch and per round, with no batch brackets and no
// record of the splits, merges and reclusterings that ran. A crash copy
// reopens to the model, and replay counts exactly the logical ops.
func TestWALHoldsOnlyWhatReplayReads(t *testing.T) {
	g := smallTestMap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ccam")
	s, err := Open(Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	s.reorg.drop = 1e-9 // any decay at all triggers a round
	model := modelFromNetwork(g)
	rng := rand.New(rand.NewSource(13))
	nextID := NodeID(100000)
	policies := []Policy{SecondOrder, HigherOrder, Lazy}
	var batches, ops, rounds int
	var moved int64 // records the batches moved
	lastEnd := walSegmentSize(t, path)
	s.applyFaultHook = func(op int) error {
		if got := walSegmentSize(t, path); got != lastEnd {
			t.Errorf("batch %d op %d: the segment grew from %d to %d bytes before the commit", batches+1, op, lastEnd, got)
		}
		return nil
	}
	for batches < 45 {
		b, bops := genBatch(rng, model, &nextID, policies[batches%len(policies)])
		if b.Len() == 0 {
			continue
		}
		before := s.m.ReorgStats().RecordsMoved
		if err := s.Apply(context.Background(), b); err != nil {
			t.Fatalf("apply %d: %v", batches, err)
		}
		moved += s.m.ReorgStats().RecordsMoved - before
		batches++
		ops += len(bops)
		lsn := s.WALStats().AppendedLSN
		if err := s.Poke(); err != nil {
			t.Fatalf("poke after batch %d: %v", batches, err)
		}
		if s.WALStats().AppendedLSN != lsn {
			rounds++
		}
		lastEnd = walSegmentSize(t, path)
	}
	s.applyFaultHook = nil
	if moved == 0 || rounds == 0 {
		t.Fatalf("the batches moved %d records and %d rounds committed: nothing for the log to leave out", moved, rounds)
	}

	crash := filepath.Join(dir, "crash", "net.ccam")
	crashCopy(t, path, crash)
	recs, _, err := storage.ScanWALDir(storage.WALDir(crash))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := storage.LastCheckpoint(recs)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint to start from: %v", err)
	}
	muts, commits := 0, 0
	for _, r := range recs {
		if r.LSN <= ck.EndLSN {
			continue
		}
		switch r.Type {
		case storage.WALRecMutation:
			m, err := netfile.DecodeMutation(r.Payload)
			if err != nil {
				t.Fatalf("lsn %d: %v", r.LSN, err)
			}
			if m.Kind < netfile.MutInsertNode || m.Kind > netfile.MutSetEdgeCost {
				t.Fatalf("lsn %d: a %s record is not a logical mutation", r.LSN, m.Kind)
			}
			muts++
		case storage.WALRecCommit:
			commits++
		default:
			t.Fatalf("lsn %d: a %s record past the checkpoint", r.LSN, r.Type)
		}
	}
	if muts != ops || commits != batches+rounds {
		t.Fatalf("past the checkpoint: %d mutations and %d commits, want %d ops and %d commits (%d batches, %d rounds)",
			muts, commits, ops, batches+rounds, batches, rounds)
	}

	r, err := OpenPath(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := diffModels(model, storeModel(t, r)); err != nil {
		t.Fatalf("recovered state diverges: %v", err)
	}
	if st := r.WALStats(); st.ReplayedMutations != ops || st.ReplayedBatches != batches+rounds {
		t.Fatalf("replayed %d mutations in %d commits, want %d in %d",
			st.ReplayedMutations, st.ReplayedBatches, ops, batches+rounds)
	}
}

func TestApplyAtomicUnderMidBatchFault(t *testing.T) {
	g := smallTestMap(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ccam")
	opts := Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 1 << 40,
	}
	boom := errors.New("boom")
	opts.applyFaultHook = func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	want := storeModel(t, s)
	e0, e1 := g.Edges()[0], g.Edges()[1]
	b := new(Batch).
		SetEdgeCost(e0.From, e0.To, 999).
		SetEdgeCost(e1.From, e1.To, 888)
	err = s.Apply(context.Background(), b)
	if !errors.Is(err, boom) {
		t.Fatalf("apply error = %v, want injected fault", err)
	}
	// The store is poisoned: every call fails with ErrClosed until
	// reopen.
	if _, err := s.Find(context.Background(), e0.From); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned store Find error = %v", err)
	}
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e0.From, e0.To, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned store mutation error = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery lands on the pre-batch state: op 0 of the aborted batch
	// must not survive.
	r, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := diffModels(want, storeModel(t, r)); err != nil {
		t.Fatalf("aborted batch leaked into recovered state: %v", err)
	}
}

func TestApplyValidationLeavesStateUntouched(t *testing.T) {
	g := smallTestMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	want := storeModel(t, s)
	e0 := g.Edges()[0]
	dup := g.NodeIDs()[0]

	// Duplicate node insert: rejected with ErrNodeExists, and the valid
	// first op must not have been applied.
	b := new(Batch).
		SetEdgeCost(e0.From, e0.To, 777).
		Insert(&InsertOp{Rec: &Record{ID: dup, Pos: Point{}}}, FirstOrder)
	err = s.Apply(context.Background(), b)
	if !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	if err := diffModels(want, storeModel(t, s)); err != nil {
		t.Fatalf("rejected batch modified state: %v", err)
	}

	// Missing edge.
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(dup, dup, 1)); !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("missing edge error = %v", err)
	}
	// Duplicate edge.
	if err := s.Apply(context.Background(), new(Batch).InsertEdge(e0.From, e0.To, 1, FirstOrder)); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate edge error = %v", err)
	}
	// Missing endpoint.
	if err := s.Apply(context.Background(), new(Batch).InsertEdge(999999, e0.To, 1, FirstOrder)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing endpoint error = %v", err)
	}
	// Cross-op validation: an edge inserted earlier in the batch is
	// visible to a later SetEdgeCost; a second insert of it is a dup.
	var free NodeID
	for to := free; ; to++ {
		if _, ok := want[e0.From][to]; !ok && to != e0.From {
			if _, exists := want[to]; exists {
				free = to
				break
			}
		}
	}
	ok := new(Batch).
		InsertEdge(e0.From, free, 5, FirstOrder).
		SetEdgeCost(e0.From, free, 6)
	if err := s.Apply(context.Background(), ok); err != nil {
		t.Fatalf("cross-op batch rejected: %v", err)
	}
	rec, err := s.Find(context.Background(), e0.From)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sc := range rec.Succs {
		if sc.To == free && sc.Cost == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("cross-op batch not applied")
	}
	bad := new(Batch).
		DeleteEdge(e0.From, free, FirstOrder).
		SetEdgeCost(e0.From, free, 7)
	if err := s.Apply(context.Background(), bad); !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("set-cost after in-batch delete error = %v", err)
	}
}

// TestApplyRefusesReservedNodeID: an insert of graph.InvalidNodeID,
// the "no node" sentinel the node index cannot hold, is refused by
// validation — before anything is logged — so the store stays healthy:
// later Applies and queries succeed, and a reopen replays none of the
// refused batch.
func TestApplyRefusesReservedNodeID(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{PageSize: 1024, Path: path, WAL: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	want := storeModel(t, s)
	ctx := context.Background()
	e0 := g.Edges()[0]
	appended := s.WALStats().AppendedLSN
	reserved := graph.InvalidNodeID
	bad := new(Batch).
		SetEdgeCost(e0.From, e0.To, 777).
		Insert(&InsertOp{Rec: &Record{ID: reserved, Succs: []SuccEntry{{To: e0.From, Cost: 1}}}}, FirstOrder)
	if err := s.Apply(ctx, bad); err == nil {
		t.Fatal("Apply stored graph.InvalidNodeID")
	}
	if got := s.WALStats().AppendedLSN; got != appended {
		t.Fatalf("refused batch logged: appended LSN %d -> %d", appended, got)
	}
	if err := diffModels(want, storeModel(t, s)); err != nil {
		t.Fatalf("refused batch modified state: %v", err)
	}
	if ok, err := s.Has(ctx, reserved); err != nil || ok {
		t.Fatalf("Has(reserved) = %v, %v", ok, err)
	}
	// The store is not poisoned: a valid batch commits and reads back.
	fresh := NodeID(1 << 30)
	if err := s.Apply(context.Background(), new(Batch).Insert(&InsertOp{Rec: &Record{ID: fresh, Succs: []SuccEntry{{To: e0.From, Cost: 2}}}}, FirstOrder)); err != nil {
		t.Fatalf("Apply after the refused batch: %v", err)
	}
	if rec, err := s.Find(ctx, fresh); err != nil || rec.ID != fresh {
		t.Fatalf("Find(%d) after the refused batch = %v, %v", fresh, rec, err)
	}
	want = storeModel(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := diffModels(want, storeModel(t, r)); err != nil {
		t.Fatal(err)
	}

	// Build refuses a network that holds the reserved id.
	if err := g.AddNode(Node{ID: reserved}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Edge{From: reserved, To: e0.From, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{PageSize: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Build(g); err == nil {
		t.Fatal("Build stored graph.InvalidNodeID")
	}
}

func TestWALGroupCommitCoalesces(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	// Metrics stay off: refreshGauges rescans every edge under the
	// exclusive latch after each mutation, which makes the latched
	// section longer than an fsync — serial arrivals by construction,
	// so coalescing would never be observable. WALStats counts fsyncs
	// regardless.
	s, err := Open(Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	const workers, perWorker = 8, 20
	// Commit in synchronized waves: a barrier per iteration guarantees
	// the 8 commits of a wave are genuinely concurrent even when a
	// loaded scheduler would otherwise serialize free-running workers
	// (serial arrivals cannot coalesce, by construction).
	var wave sync.WaitGroup
	errc := make(chan error, workers)
	for i := 0; i < perWorker; i++ {
		wave.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w, i int) {
				defer wave.Done()
				e := edges[(w*perWorker+i)%len(edges)]
				if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, float32(i+1))); err != nil {
					select {
					case errc <- err:
					default:
					}
				}
			}(w, i)
		}
		wave.Wait()
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	fsyncs := s.WALStats().Fsyncs
	commits := int64(workers * perWorker)
	if fsyncs == 0 {
		t.Fatal("no fsyncs recorded")
	}
	if fsyncs >= commits {
		if raceEnabled {
			// Race instrumentation makes the latched apply section
			// slower than an fsync, so a wave's commits arrive
			// serially — and serial arrivals cannot coalesce.
			t.Skipf("race build: latch slower than fsync, coalescing not observable (%d fsyncs / %d commits)", fsyncs, commits)
		}
		if runtime.GOMAXPROCS(0) == 1 {
			// On a single P a committer blocked in the fsync syscall
			// keeps the processor until sysmon retakes it, so the next
			// wave member often cannot even start its append until the
			// previous commit's fsync has finished — serial arrivals by
			// scheduling, and serial arrivals cannot coalesce. Whether
			// the adaptive group delay rescues a run depends on
			// scheduler history, so the outcome is not deterministic
			// enough to assert on.
			t.Skipf("GOMAXPROCS=1: commits arrive serially, coalescing not observable (%d fsyncs / %d commits)", fsyncs, commits)
		}
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d commits", fsyncs, commits)
	}
	t.Logf("group commit: %d commits, %d fsyncs (%.1fx coalescing)",
		commits, fsyncs, float64(commits)/float64(fsyncs))
}

func TestErrClosedAndCtxCancel(t *testing.T) {
	g := smallTestMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Find(ctx, g.NodeIDs()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindCtx on canceled ctx = %v", err)
	}
	if _, err := s.GetSuccessors(ctx, g.NodeIDs()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetSuccessorsCtx on canceled ctx = %v", err)
	}
	if _, err := s.EvaluateRoute(ctx, Route{g.NodeIDs()[0]}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateRouteCtx on canceled ctx = %v", err)
	}
	if err := s.Apply(ctx, new(Batch).SetEdgeCost(1, 2, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply on canceled ctx = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Find(context.Background(), g.NodeIDs()[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Find after Close = %v", err)
	}
	if err := s.Apply(context.Background(), new(Batch).Insert(&InsertOp{Rec: &Record{ID: 1}}, FirstOrder)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v", err)
	}
	if err := s.Build(g); !errors.Is(err, ErrClosed) {
		t.Fatalf("Build after Close = %v", err)
	}
}

// TestFailedBuildLogsEveryLaterWrite: a Build that fails must not leave
// a store that acknowledges writes it never logs. A network holding the
// reserved id is refused before the log is reset, so the old contents
// keep serving and later writes are logged and survive a reopen. A
// Build that fails once its load has begun poisons the store: later
// writes are refused, and Close persists nothing.
func TestFailedBuildLogsEveryLaterWrite(t *testing.T) {
	g := smallTestMap(t)
	e0 := g.Edges()[0]
	open := func(path string) *Store {
		s, err := Open(Options{PageSize: 1024, Path: path, WAL: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Build(g); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fresh := NodeID(1 << 30)
	insert := func(s *Store) error {
		return s.Apply(context.Background(), new(Batch).Insert(&InsertOp{Rec: &Record{ID: fresh, Succs: []SuccEntry{{To: e0.From, Cost: 2}}}}, FirstOrder))
	}

	t.Run("reserved-id", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "net.ccam")
		s := open(path)
		bad := g.Clone()
		if err := bad.AddNode(Node{ID: graph.InvalidNodeID}); err != nil {
			t.Fatal(err)
		}
		if err := s.Build(bad); err == nil {
			t.Fatal("Build stored graph.InvalidNodeID")
		}
		if s.Len() != g.NumNodes() {
			t.Fatalf("after the refused Build the store holds %d nodes, want the old %d", s.Len(), g.NumNodes())
		}
		appended := s.WALStats().AppendedLSN
		if err := insert(s); err != nil {
			t.Fatalf("Insert after the refused Build: %v", err)
		}
		if got := s.WALStats().AppendedLSN; got == appended {
			t.Fatal("Insert after the refused Build was acknowledged but not logged")
		}
		want := storeModel(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenPath(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := diffModels(want, storeModel(t, r)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("load-fails", func(t *testing.T) {
		s := open(filepath.Join(t.TempDir(), "net.ccam"))
		// A record larger than a 1 KiB page fails the load after the log
		// has been reset.
		bad := g.Clone()
		big := Node{ID: 1 << 29, Attrs: make([]byte, 2048)}
		if err := bad.AddNode(big); err != nil {
			t.Fatal(err)
		}
		if err := bad.AddEdge(Edge{From: big.ID, To: e0.From, Cost: 1, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Build(bad); err == nil {
			t.Fatal("Build stored a record larger than a page")
		}
		if err := insert(s); !errors.Is(err, ErrClosed) {
			t.Fatalf("Insert after a failed load = %v, want the poison's ErrClosed", err)
		}
		if err := s.Build(g); !errors.Is(err, ErrClosed) {
			t.Fatalf("Build after a failed load = %v, want the poison's ErrClosed", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close of the poisoned store: %v", err)
		}
	})
}

// TestCheckpointTriggerCountsNewLog holds the automatic checkpoint to
// its bound: it fires on the commit that takes the log written since
// the last checkpoint past CheckpointBytes, and not before. A batch that
// dirties most pages is checkpointed by hand first, leaving its page
// images — more than the bound — in the log, so a trigger that
// compared the whole retained log with the bound would checkpoint
// again on the very next commit.
func TestCheckpointTriggerCountsNewLog(t *testing.T) {
	const bound = 4 << 10
	g := smallTestMap(t)
	s, err := Open(Options{
		PageSize: 1024, Path: filepath.Join(t.TempDir(), "net.ccam"), WAL: true, Seed: 3,
		SyncPolicy: SyncNone, CheckpointBytes: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	e := g.Edges()
	ctx := context.Background()
	wide := new(Batch)
	for i := 0; i < len(e); i += 4 {
		wide.SetEdgeCost(e[i].From, e[i].To, 99)
	}
	if err := s.Apply(ctx, wide); err != nil {
		t.Fatal(err)
	}
	if st := s.WALStats(); st.Checkpoints != 1 {
		t.Fatalf("the wide batch (%d ops) left %d checkpoints, want Build's alone", wide.Len(), st.Checkpoints)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.WALStats()
	if st.SizeBytes <= bound || st.Checkpoints != 2 || st.BytesSinceCheckpoint != 0 {
		t.Fatalf("after the checkpoint: %d log bytes, %d checkpoints, %d bytes since the last; want more than %d, 2, 0",
			st.SizeBytes, st.Checkpoints, st.BytesSinceCheckpoint, bound)
	}
	fired := 0
	for i := 0; fired < 3; i++ {
		if i > 1000 {
			t.Fatal("1000 commits and fewer than 3 checkpoints")
		}
		before := s.WALStats()
		if err := s.Apply(ctx, new(Batch).SetEdgeCost(e[i%len(e)].From, e[i%len(e)].To, float32(i+1))); err != nil {
			t.Fatal(err)
		}
		after := s.WALStats()
		// One mutation record of a 13-byte payload and one empty commit
		// record: 47 bytes.
		logged := before.BytesSinceCheckpoint + 47
		switch {
		case logged > bound:
			if after.Checkpoints != before.Checkpoints+1 || after.BytesSinceCheckpoint != 0 {
				t.Fatalf("commit %d took the new log to %d bytes, past the %d bound, and left %d checkpoints (was %d), %d bytes since",
					i, logged, bound, after.Checkpoints, before.Checkpoints, after.BytesSinceCheckpoint)
			}
			fired++
		case after.Checkpoints != before.Checkpoints:
			t.Fatalf("commit %d checkpointed with %d bytes of new log, within the %d bound (%d log bytes on disk)",
				i, logged, bound, before.SizeBytes)
		case after.BytesSinceCheckpoint != logged:
			t.Fatalf("commit %d: %d bytes since the checkpoint, want %d", i, after.BytesSinceCheckpoint, logged)
		}
	}
}

// landedWrites wraps a page store and counts the pages written to it.
type landedWrites struct {
	storage.Store
	pages atomic.Int64
}

func (l *landedWrites) WritePage(id storage.PageID, buf []byte) error {
	return l.WritePages(id, buf)
}

func (l *landedWrites) WritePages(first storage.PageID, run []byte) error {
	if err := l.Store.WritePages(first, run); err != nil {
		return err
	}
	l.pages.Add(int64(len(run) / l.PageSize()))
	return nil
}

// TestCheckpointFlushTornRunRecovers tears the data-file write of a
// checkpoint: the flush writes contiguous dirty pages as one run, and
// the fault cuts a run at a page inside it — once at the page's start,
// so the run's earlier pages land and the rest do not, and once inside
// the page. The checkpoint's images are durable in the log before the
// flush starts, so a reopen of what the crash left restores the
// committed state.
func TestCheckpointFlushTornRunRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode storage.FaultMode
	}{{"page-boundary", storage.FaultError}, {"mid-page", storage.FaultTornWrite}} {
		t.Run(tc.name, func(t *testing.T) {
			g := smallTestMap(t)
			dir := t.TempDir()
			path := filepath.Join(dir, "net.ccam")
			var fst *storage.FaultStore
			landed := new(landedWrites)
			s, err := Open(Options{
				PageSize: 1024, Path: path, WAL: true, Seed: 3,
				SyncPolicy: SyncGroupCommit, CheckpointBytes: 1 << 40,
				wrapPages: func(st storage.Store) storage.Store {
					landed.Store = st
					fst = storage.NewFaultStore(landed, 5)
					return fst
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Build(g); err != nil {
				t.Fatal(err)
			}
			model := modelFromNetwork(g)
			rng := rand.New(rand.NewSource(17))
			nextID := NodeID(100000)
			for n := 0; n < 12; {
				b, ops := genBatch(rng, model, &nextID, SecondOrder)
				if b.Len() == 0 {
					continue
				}
				if err := s.Apply(context.Background(), b); err != nil {
					t.Fatal(err)
				}
				_ = ops
				n++
			}
			// The victim is a dirty page whose predecessor is dirty too:
			// it sits inside a run, not at its head.
			var dirty []storage.PageID
			if err := s.m.File().Pool().EachDirty(func(id storage.PageID, _ []byte) error {
				dirty = append(dirty, id)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
			victim := storage.InvalidPageID
			for i := 1; i < len(dirty); i++ {
				if dirty[i] == dirty[i-1]+1 {
					victim = dirty[i]
					break
				}
			}
			if victim == storage.InvalidPageID {
				t.Fatalf("no two dirty pages are contiguous among %v", dirty)
			}
			written := landed.pages.Load()
			fst.Inject(storage.Fault{Op: storage.FaultWrite, Page: victim, Count: 1, Mode: tc.mode})
			if err := s.Checkpoint(); err == nil {
				t.Fatal("the checkpoint's torn flush reported success")
			}
			if fst.Injected() != 1 {
				t.Fatalf("%d faults fired, want 1", fst.Injected())
			}
			if landed.pages.Load() == written {
				t.Fatal("no page of the torn run reached the file")
			}
			crash := filepath.Join(dir, "crash", "net.ccam")
			crashCopy(t, path, crash)
			// What the crash left is not damage: a page the flush tore
			// mid-page holds an image in the log's last complete
			// checkpoint, which a reopen writes back.
			rep, err := storage.CheckFile(crash)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("the crash copy checks as damaged: %v", rep.Damaged)
			}
			restored := slices.ContainsFunc(rep.Restored, func(d storage.PageDamage) bool { return d.ID == victim })
			if restored != (tc.mode == storage.FaultTornWrite) || len(rep.Restored) > 1 {
				t.Fatalf("pages restored from the log: %v; the torn page is %d", rep.Restored, victim)
			}
			// ...so repair leaves the page in place.
			repaired := filepath.Join(dir, "repaired", "net.ccam")
			crashCopy(t, crash, repaired)
			if rep, err = storage.RepairFile(repaired); err != nil {
				t.Fatal(err)
			}
			if len(rep.Repaired) != 0 || slices.Contains(rep.FreePages, victim) {
				t.Fatalf("repair acted on a restorable page: %v, free pages %v", rep.Repaired, rep.FreePages)
			}
			for _, p := range []string{crash, repaired} {
				r, err := OpenPath(p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if err := diffModels(model, storeModel(t, r)); err != nil {
					t.Fatalf("%s: recovered state: %v", p, err)
				}
				if err := r.Verify(); err != nil {
					t.Fatalf("%s: %v", p, err)
				}
			}
		})
	}
}
