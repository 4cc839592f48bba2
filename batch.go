package ccam

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// forEachLimit runs fn(0..n-1) on up to `workers` goroutines, stopping
// at the first error or context cancellation and returning it. Work is
// handed out through an atomic cursor, so cheap items don't wait on
// expensive ones.
func forEachLimit(ctx context.Context, n, workers int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// FindBatch retrieves the records of every id, fanning the lookups
// across a worker pool bounded by Options.Parallelism (default
// runtime.GOMAXPROCS(0)). Results are positional: out[i] is the record
// of ids[i]. The first lookup error, or a context cancellation, stops
// the remaining work and is returned; partial results are discarded.
func (s *Store) FindBatch(ctx context.Context, ids []NodeID) ([]*Record, error) {
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	run := func() ([]*Record, error) {
		out := make([]*Record, len(ids))
		err := forEachLimit(ctx, len(ids), s.parallelism, func(i int) error {
			rec, err := v.view.Find(ids[i])
			if err != nil {
				return err
			}
			out[i] = rec
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.findBatch, v.f)
		out, err := run()
		sn.end(err)
		return out, err
	}
	return run()
}

// EvaluateRoutes evaluates every route, fanning the evaluations across
// a worker pool bounded by Options.Parallelism (default
// runtime.GOMAXPROCS(0)). Results are positional: out[i] is the
// aggregate of routes[i]. The first evaluation error, or a context
// cancellation, stops the remaining work and is returned.
func (s *Store) EvaluateRoutes(ctx context.Context, routes []Route) ([]RouteAggregate, error) {
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	run := func() ([]RouteAggregate, error) {
		out := make([]RouteAggregate, len(routes))
		err := forEachLimit(ctx, len(routes), s.parallelism, func(i int) error {
			agg, err := v.view.EvaluateRoute(routes[i])
			if err != nil {
				return err
			}
			out[i] = agg
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.evaluateRoutes, v.f)
		out, err := run()
		sn.end(err)
		return out, err
	}
	return run()
}

// defaultCheckpointBytes bounds the WAL between automatic checkpoints
// (Options.CheckpointBytes overrides it).
const defaultCheckpointBytes = 4 << 20

// Batch accumulates mutations for one atomic Apply. The builder
// methods return the batch, so one-op batches read as
// new(Batch).Insert(op, policy). A Batch is not safe for concurrent
// mutation and must not be reused across Apply calls that failed.
type Batch struct {
	ops []batchOp
}

// batchOp is one queued mutation; kind selects which fields matter.
type batchOp struct {
	kind     netfile.MutKind
	insert   *InsertOp
	id       NodeID
	from, to NodeID
	cost     float32
	policy   Policy
}

// Insert queues a node insertion under the given policy.
func (b *Batch) Insert(op *InsertOp, policy Policy) *Batch {
	b.ops = append(b.ops, batchOp{kind: netfile.MutInsertNode, insert: op, policy: policy})
	return b
}

// Delete queues a node deletion under the given policy.
func (b *Batch) Delete(id NodeID, policy Policy) *Batch {
	b.ops = append(b.ops, batchOp{kind: netfile.MutDeleteNode, id: id, policy: policy})
	return b
}

// InsertEdge queues a directed-edge insertion under the given policy.
func (b *Batch) InsertEdge(from, to NodeID, cost float32, policy Policy) *Batch {
	b.ops = append(b.ops, batchOp{kind: netfile.MutInsertEdge, from: from, to: to, cost: cost, policy: policy})
	return b
}

// DeleteEdge queues a directed-edge deletion under the given policy.
func (b *Batch) DeleteEdge(from, to NodeID, policy Policy) *Batch {
	b.ops = append(b.ops, batchOp{kind: netfile.MutDeleteEdge, from: from, to: to, policy: policy})
	return b
}

// SetEdgeCost queues an in-place edge cost update.
func (b *Batch) SetEdgeCost(from, to NodeID, cost float32) *Batch {
	b.ops = append(b.ops, batchOp{kind: netfile.MutSetEdgeCost, from: from, to: to, cost: cost})
	return b
}

// Len returns the number of queued operations.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ops)
}

// mutation returns the WAL form of the op.
func (op *batchOp) mutation() *netfile.Mutation {
	m := &netfile.Mutation{Kind: op.kind, ID: op.id, From: op.from, To: op.to, Cost: op.cost}
	if op.kind == netfile.MutInsertNode {
		m.Rec = op.insert.Rec
		m.PredCosts = op.insert.PredCosts
	}
	return m
}

// Apply commits every operation of the batch atomically: either all of
// them take effect or none do. The batch is validated against the
// current contents first (duplicate nodes, missing endpoints, absent
// edges are rejected with ErrNodeExists / ErrNotFound / ErrEdgeExists
// / ErrEdgeMissing before anything is logged or modified). With a WAL
// the batch is bracketed by begin/commit records and acknowledged only
// once its commit record is durable under the store's sync policy;
// concurrent Apply calls coalesce their fsyncs (group commit).
//
// A post-validation failure mid-batch (an I/O error, or a fault
// injected by tests) aborts the batch in the log and poisons the
// store: every later call fails until the store is reopened, and
// recovery restores exactly the previously committed state. Readers
// may observe a committed-in-memory batch shortly before its commit
// record is durable (read uncommitted durability, the standard group
// commit trade).
//
// Apply takes only the store's writer lock, which snapshot queries do
// not share: a reader that pinned its snapshot before the commit keeps
// resolving the pre-batch page versions and placements for as long as
// it runs, and a reader arriving mid-batch pins the previous commit —
// neither waits on the batch's page I/O, its in-lock checkpoint or its
// group-commit fsync. The batch's pre-images are captured into the
// buffer pool's version chains (BeginVersionBatch) and published
// atomically at the commit LSN (PublishVersionBatch).
func (s *Store) Apply(ctx context.Context, b *Batch) error {
	if b.Len() == 0 {
		return ctx.Err()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.failedErr(); err != nil {
		s.mu.Unlock()
		return err
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return err
	}
	f := s.m.File()
	if f == nil {
		// Pre-Build there is no file and no WAL; dispatch directly so
		// each access method's own "before Build" error surfaces.
		err := s.applyUnbuilt(b)
		s.mu.Unlock()
		return err
	}
	if err := s.validateBatch(f, b); err != nil {
		s.mu.Unlock()
		return err
	}
	var applySnap opSnap
	if s.obs != nil {
		applySnap = s.obs.beginOpCtx(ctx, s.obs.apply, f)
	}
	w := f.WAL()
	if w != nil {
		if _, err := w.Append(storage.WALRecBegin, nil); err != nil {
			if s.obs != nil {
				applySnap.end(err)
			}
			s.mu.Unlock()
			return err
		}
	}
	// From here on the batch mutates pages: capture pre-images and
	// placement changes so snapshot readers keep the pre-batch view
	// until the commit publishes.
	f.BeginVersionBatch()
	var applyErr error
	for i := range b.ops {
		op := &b.ops[i]
		if s.applyFaultHook != nil {
			if err := s.applyFaultHook(i); err != nil {
				applyErr = fmt.Errorf("ccam: apply op %d: %w", i, err)
				break
			}
		}
		if w != nil {
			// Log the logical mutation before touching any page
			// (WAL-before-data); reorganizations triggered by the op log
			// their own split/merge records after it.
			if err := f.LogMutation(op.mutation()); err != nil {
				applyErr = err
				break
			}
		}
		if err := s.applyOp(f, op); err != nil {
			applyErr = fmt.Errorf("ccam: apply op %d: %w", i, err)
			break
		}
	}
	if applyErr != nil {
		if w != nil {
			w.Append(storage.WALRecAbort, nil) // best effort; recovery ignores unterminated batches too
		}
		// The aborted batch's pre-images stay pending in the version
		// chains, so any still-pinned reader keeps a committed view of
		// the half-mutated pages; the poison below makes the torn live
		// state unreachable until reopen.
		f.AbortVersionBatch()
		s.poison(fmt.Errorf("%w: mid-batch apply failure, reopen to recover: %v", ErrClosed, applyErr))
		if s.obs != nil {
			applySnap.end(applyErr)
		}
		s.mu.Unlock()
		return applyErr
	}
	var commitLSN uint64
	if w != nil {
		lsn, err := w.Append(storage.WALRecCommit, nil)
		if err != nil {
			f.AbortVersionBatch()
			s.poison(fmt.Errorf("%w: wal commit append failed, reopen to recover: %v", ErrClosed, err))
			if s.obs != nil {
				applySnap.end(err)
			}
			s.mu.Unlock()
			return err
		}
		commitLSN = lsn
	}
	// Publish before the checkpoint: the checkpoint executes deferred
	// page frees, which must find the freed pages' committed images
	// already stamped in the version chains.
	f.PublishVersionBatch(commitLSN)
	if w != nil && s.checkpointBytes > 0 && w.Size() > s.checkpointBytes {
		if err := f.Checkpoint(); err != nil {
			s.poison(fmt.Errorf("%w: checkpoint failed, reopen to recover: %v", ErrClosed, err))
			if s.obs != nil {
				applySnap.end(err)
			}
			s.mu.Unlock()
			return err
		}
	}
	if s.obs != nil {
		applySnap.end(nil)
		s.obs.setGauges(f)
		s.obs.setSnapshotGauges(f)
	}
	s.mu.Unlock()
	if w != nil {
		// The commit fsync runs outside the store lock so concurrent
		// committers coalesce into one fsync (group commit). The wait is
		// measured from the committing request's perspective — group
		// formation plus fsync — and charged to the request's ReqStats
		// and the ccam_wal_commit_wait_ns histogram (see DESIGN.md on why
		// the request, not the fsync leader, owns this time).
		var commitStart time.Time
		if s.obs != nil {
			commitStart = time.Now()
		}
		err := w.Commit(commitLSN)
		if s.obs != nil {
			waitNs := time.Since(commitStart).Nanoseconds()
			s.obs.walCommitWait.Observe(waitNs)
			if applySnap.rs != nil {
				applySnap.rs.WALWaitNs += waitNs
			}
		}
		if err != nil {
			s.poison(fmt.Errorf("%w: wal commit failed, reopen to recover: %v", ErrClosed, err))
			return err
		}
	}
	return nil
}

// applyUnbuilt dispatches a batch on a store whose file does not exist
// yet; the first op returns the access method's pre-Build error.
func (s *Store) applyUnbuilt(b *Batch) error {
	for i := range b.ops {
		op := &b.ops[i]
		var err error
		switch op.kind {
		case netfile.MutInsertNode:
			err = s.m.Insert(op.insert, op.policy)
		case netfile.MutDeleteNode:
			err = s.m.Delete(op.id, op.policy)
		case netfile.MutInsertEdge:
			err = s.m.InsertEdge(op.from, op.to, op.cost, op.policy)
		case netfile.MutDeleteEdge:
			err = s.m.DeleteEdge(op.from, op.to, op.policy)
		case netfile.MutSetEdgeCost:
			err = fmt.Errorf("ccam: store is empty; call Build first")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyOp applies one validated op to the in-memory/file state, with
// per-operation metric attribution.
func (s *Store) applyOp(f *netfile.File, op *batchOp) error {
	var sn opSnap
	if s.obs != nil {
		sn = s.obs.beginOp(s.obs.opFor(op.kind), f)
	}
	var err error
	switch op.kind {
	case netfile.MutInsertNode:
		err = s.m.Insert(op.insert, op.policy)
	case netfile.MutDeleteNode:
		err = s.m.Delete(op.id, op.policy)
	case netfile.MutInsertEdge:
		err = s.m.InsertEdge(op.from, op.to, op.cost, op.policy)
	case netfile.MutDeleteEdge:
		err = s.m.DeleteEdge(op.from, op.to, op.policy)
	case netfile.MutSetEdgeCost:
		err = f.SetEdgeCost(op.from, op.to, op.cost)
	default:
		err = fmt.Errorf("ccam: unknown batch op kind %d", op.kind)
	}
	if s.obs != nil {
		sn.end(err)
	}
	return err
}

// batchValidator checks a batch against the stored contents plus the
// effects of the batch's earlier ops, so validation errors surface
// before anything is logged or modified (that is what makes Apply
// all-or-nothing without an undo log: a validated op can only fail for
// environmental reasons, which poison the store instead).
type batchValidator struct {
	f *netfile.File
	// nodes caches node existence; entries are overwritten by the
	// batch's own inserts/deletes.
	nodes map[NodeID]bool
	// fresh marks nodes created by this batch: every edge they have is
	// in edges, so missing entries mean "no such edge" without a file
	// read.
	fresh map[NodeID]bool
	// edges caches directed-edge existence, batch effects included.
	edges map[[2]NodeID]bool
}

func (v *batchValidator) nodeExists(id NodeID) (bool, error) {
	if e, ok := v.nodes[id]; ok {
		return e, nil
	}
	ok, err := v.f.HasRecord(id)
	if err != nil {
		return false, err
	}
	v.nodes[id] = ok
	return ok, nil
}

func (v *batchValidator) edgeExists(from, to NodeID) (bool, error) {
	key := [2]NodeID{from, to}
	if e, ok := v.edges[key]; ok {
		return e, nil
	}
	if v.fresh[from] {
		return false, nil
	}
	rec, err := v.f.Find(from)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	ok := rec.HasSucc(to)
	v.edges[key] = ok
	return ok, nil
}

func (s *Store) validateBatch(f *netfile.File, b *Batch) error {
	v := &batchValidator{
		f:     f,
		nodes: make(map[NodeID]bool),
		fresh: make(map[NodeID]bool),
		edges: make(map[[2]NodeID]bool),
	}
	for i := range b.ops {
		op := &b.ops[i]
		if err := v.validateOp(op); err != nil {
			return fmt.Errorf("ccam: batch op %d: %w", i, err)
		}
	}
	return nil
}

func (v *batchValidator) validateOp(op *batchOp) error {
	switch op.kind {
	case netfile.MutInsertNode:
		if op.insert == nil {
			return fmt.Errorf("nil insert op")
		}
		if err := op.insert.Validate(); err != nil {
			return err
		}
		rec := op.insert.Rec
		if ok, err := v.nodeExists(rec.ID); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("insert node %d: %w", rec.ID, ErrNodeExists)
		}
		for _, sc := range rec.Succs {
			if ok, err := v.nodeExists(sc.To); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("insert node %d: successor %d: %w", rec.ID, sc.To, ErrNotFound)
			}
		}
		for _, p := range rec.Preds {
			if ok, err := v.nodeExists(p); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("insert node %d: predecessor %d: %w", rec.ID, p, ErrNotFound)
			}
		}
		v.nodes[rec.ID] = true
		v.fresh[rec.ID] = true
		for _, sc := range rec.Succs {
			v.edges[[2]NodeID{rec.ID, sc.To}] = true
		}
		for _, p := range rec.Preds {
			v.edges[[2]NodeID{p, rec.ID}] = true
		}
		return nil
	case netfile.MutDeleteNode:
		if ok, err := v.nodeExists(op.id); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("delete node %d: %w", op.id, ErrNotFound)
		}
		// Record the incident edges the delete removes, so later edge
		// ops in the batch see them gone.
		if !v.fresh[op.id] {
			rec, err := v.f.Find(op.id)
			if err != nil {
				return err
			}
			for _, sc := range rec.Succs {
				v.edges[[2]NodeID{op.id, sc.To}] = false
			}
			for _, p := range rec.Preds {
				v.edges[[2]NodeID{p, op.id}] = false
			}
		} else {
			for key := range v.edges {
				if key[0] == op.id || key[1] == op.id {
					v.edges[key] = false
				}
			}
		}
		v.nodes[op.id] = false
		delete(v.fresh, op.id)
		return nil
	case netfile.MutInsertEdge:
		if err := v.requireNodes(op.from, op.to); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.from, op.to); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("insert edge %d->%d: %w", op.from, op.to, ErrEdgeExists)
		}
		v.edges[[2]NodeID{op.from, op.to}] = true
		return nil
	case netfile.MutDeleteEdge:
		if err := v.requireNodes(op.from, op.to); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.from, op.to); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("delete edge %d->%d: %w", op.from, op.to, ErrEdgeMissing)
		}
		v.edges[[2]NodeID{op.from, op.to}] = false
		return nil
	case netfile.MutSetEdgeCost:
		if err := v.requireNodes(op.from, op.to); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.from, op.to); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("set edge cost %d->%d: %w", op.from, op.to, ErrEdgeMissing)
		}
		return nil
	default:
		return fmt.Errorf("unknown batch op kind %d", op.kind)
	}
}

func (v *batchValidator) requireNodes(from, to NodeID) error {
	if ok, err := v.nodeExists(from); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("node %d: %w", from, ErrNotFound)
	}
	if ok, err := v.nodeExists(to); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("node %d: %w", to, ErrNotFound)
	}
	return nil
}
