package ccam

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	iccam "ccam/internal/ccam"
	"ccam/internal/metrics"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// forEach runs fn(0..n-1) on up to runtime.GOMAXPROCS(0) goroutines,
// stopping at the first error or context cancellation and returning
// it. Work is handed out through an atomic cursor, so cheap items don't
// wait on expensive ones. The operation's account is fanned out with
// the work: each worker counts into a share of its own, which fn is
// handed, and the shares are added to acct once the workers are done.
func forEach(ctx context.Context, n int, acct *metrics.Account, fn func(w *metrics.Account, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(acct, i); err != nil {
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
		shares   = make([]metrics.Account, workers)
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := range shares {
		share := &shares[w]
		acct.Fork(share)
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
				if err := fn(share, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range shares {
		acct.Join(&shares[w])
	}
	return firstErr
}

// FindBatch retrieves the records of every id, fanning the lookups
// across runtime.GOMAXPROCS(0) workers. Results are positional: out[i]
// is the record of ids[i]. The first lookup error, or a context
// cancellation, stops the remaining work and is returned; partial
// results are discarded.
func (s *Store) FindBatch(ctx context.Context, ids []NodeID) (out []*Record, err error) {
	var v readView
	if err = s.beginRead(ctx, opFindBatch, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	view := v.view
	out = make([]*Record, len(ids))
	err = forEach(ctx, len(ids), view.Account(), func(w *metrics.Account, i int) error {
		rec, err := view.Charging(w).Find(ids[i])
		out[i] = rec
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateRoutes evaluates every route, fanning the evaluations across
// runtime.GOMAXPROCS(0) workers. Results are positional: out[i] is the
// aggregate of routes[i]. The first evaluation error, or a context
// cancellation, stops the remaining work and is returned.
func (s *Store) EvaluateRoutes(ctx context.Context, routes []Route) (out []RouteAggregate, err error) {
	var v readView
	if err = s.beginRead(ctx, opEvaluateRoutes, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	view := v.view
	out = make([]RouteAggregate, len(routes))
	err = forEach(ctx, len(routes), view.Account(), func(w *metrics.Account, i int) error {
		agg, err := view.Charging(w).EvaluateRoute(routes[i])
		out[i] = agg
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// defaultCheckpointBytes bounds the WAL between automatic checkpoints
// (Options.CheckpointBytes overrides it).
const defaultCheckpointBytes = 4 << 20

// Batch accumulates mutations for one atomic Apply. The builder
// methods return the batch, so one-op batches read as
// new(Batch).Insert(op, policy). A Batch is not safe for concurrent
// mutation and must not be reused across Apply calls that failed.
type Batch struct {
	ops []queuedOp
}

// queuedOp is one queued mutation, in its WAL form, and the
// reorganization policy it runs under.
type queuedOp struct {
	mut    netfile.Mutation
	policy Policy
}

// Insert queues a node insertion under the given policy.
func (b *Batch) Insert(op *InsertOp, policy Policy) *Batch {
	m := netfile.Mutation{Kind: netfile.MutInsertNode}
	if op != nil {
		m.Rec, m.PredCosts = op.Rec, op.PredCosts
	}
	b.ops = append(b.ops, queuedOp{mut: m, policy: policy})
	return b
}

// Delete queues a node deletion under the given policy.
func (b *Batch) Delete(id NodeID, policy Policy) *Batch {
	b.ops = append(b.ops, queuedOp{mut: netfile.Mutation{Kind: netfile.MutDeleteNode, ID: id}, policy: policy})
	return b
}

// InsertEdge queues a directed-edge insertion under the given policy.
func (b *Batch) InsertEdge(from, to NodeID, cost float32, policy Policy) *Batch {
	b.ops = append(b.ops, queuedOp{mut: netfile.Mutation{Kind: netfile.MutInsertEdge, From: from, To: to, Cost: cost}, policy: policy})
	return b
}

// DeleteEdge queues a directed-edge deletion under the given policy.
func (b *Batch) DeleteEdge(from, to NodeID, policy Policy) *Batch {
	b.ops = append(b.ops, queuedOp{mut: netfile.Mutation{Kind: netfile.MutDeleteEdge, From: from, To: to}, policy: policy})
	return b
}

// SetEdgeCost queues an in-place edge cost update.
func (b *Batch) SetEdgeCost(from, to NodeID, cost float32) *Batch {
	b.ops = append(b.ops, queuedOp{mut: netfile.Mutation{Kind: netfile.MutSetEdgeCost, From: from, To: to, Cost: cost}})
	return b
}

// Len returns the number of queued operations.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ops)
}

// applyMutation executes one logical mutation through the CCAM method
// m under the given policy. It is the one dispatch behind a live Apply,
// an Apply before Build — m has no file yet, so the method's own
// "before Build" error surfaces — and WAL replay. A mutation that ran
// leaves every record's lists agreeing again: that is when the file's
// PAG summary takes it in.
func applyMutation(m *iccam.Method, mut *netfile.Mutation, policy Policy) error {
	err := dispatchMutation(m, mut, policy)
	if f := m.File(); err == nil && f != nil {
		f.SettlePAG()
	}
	return err
}

func dispatchMutation(m *iccam.Method, mut *netfile.Mutation, policy Policy) error {
	switch mut.Kind {
	case netfile.MutInsertNode:
		return m.Insert(&InsertOp{Rec: mut.Rec, PredCosts: mut.PredCosts}, policy)
	case netfile.MutDeleteNode:
		return m.Delete(mut.ID, policy)
	case netfile.MutInsertEdge:
		return m.InsertEdge(mut.From, mut.To, mut.Cost, policy)
	case netfile.MutDeleteEdge:
		return m.DeleteEdge(mut.From, mut.To, policy)
	case netfile.MutSetEdgeCost:
		f := m.File()
		if f == nil {
			return errEmpty
		}
		return f.SetEdgeCost(mut.From, mut.To, mut.Cost)
	case netfile.MutSplitPage, netfile.MutMergePages:
		// Logged for the record only. Replay runs every mutation
		// FirstOrder, so the reorganizations these records mark are lost
		// until the next checkpoint (see replayWAL).
		return nil
	default:
		return fmt.Errorf("ccam: unknown mutation kind %d", mut.Kind)
	}
}

// writeTx is one write transaction in flight (see Store.write).
type writeTx struct {
	s   *Store
	ctx context.Context
	// f is the live file, nil before Build.
	f *netfile.File
	// begun is set once the transaction has logged its begin record
	// and opened its version batch: from then on it commits or poisons.
	begun bool
	// acct is the transaction's account. The live file counts into it from
	// the moment run has the file — validation reads included — and begin
	// names the operation it is charged to; a transaction that never
	// begins charges nobody.
	acct opAccount
	// lsn is the commit record's LSN (0 without a WAL).
	lsn uint64
}

// write runs body as a write transaction — the one place the protocol
// is spelled out. Under the writer mutex, which no query takes, it
// checks that the store is open and healthy and calls body. body
// inspects and validates against tx.f; once it has decided to change
// something it calls tx.begin and makes its changes. A body that
// returns without begin has logged and modified nothing, and its error
// is simply returned. After begin the transaction either commits —
// commit record, publication, checkpoint when the log has outgrown its
// bound, gauges — or, when body, the commit append or the checkpoint
// fails, poisons the store: every later call fails until a reopen
// recovers the previously committed state. The commit fsync is awaited
// after the mutex is released, so concurrent committers coalesce into
// one fsync (group commit); queries may observe a committed-in-memory
// batch shortly before its commit record is durable (read uncommitted
// durability, the standard group-commit trade).
func (s *Store) write(ctx context.Context, body func(tx *writeTx) error) error {
	tx := writeTx{s: s, ctx: ctx}
	err := tx.runLocked(body)
	if err != nil || !tx.begun {
		return err
	}
	w := tx.f.WAL()
	if w == nil {
		return nil
	}
	// The wait is measured from the committing request's perspective —
	// group formation plus fsync — and charged to the request's ReqStats
	// and the ccam_wal_commit_wait_ns histogram (see DESIGN.md on why
	// the request, not the fsync leader, owns this time).
	if s.obs == nil {
		err = w.Commit(tx.lsn)
	} else {
		start := time.Now()
		err = w.Commit(tx.lsn)
		waitNs := time.Since(start).Nanoseconds()
		s.obs.walCommitWait.Observe(waitNs)
		if tx.acct.rs != nil {
			tx.acct.rs.WALWaitNs += waitNs
		}
	}
	if err != nil {
		s.poison("wal commit", err)
	}
	return err
}

// begin turns the transaction from reading to writing: it starts
// charging the account to operation op, logs the begin record and opens
// the version batch that captures pre-images and placement changes, so
// queries keep the pre-transaction view until the commit publishes.
func (tx *writeTx) begin(op opKind) error {
	tx.s.beginAccount(tx.ctx, op, &tx.acct)
	if w := tx.f.WAL(); w != nil {
		if _, err := w.Append(storage.WALRecBegin, nil); err != nil {
			tx.s.endAccount(&tx.acct, err)
			return err
		}
	}
	tx.f.BeginVersionBatch()
	tx.begun = true
	return nil
}

// runLocked takes the writer mutex around run and releases it however
// run ends. A panic in a write transaction is a bug, and what it left
// behind is unknown: the version batch is aborted like a failed body's,
// so views pinned before it keep answering from committed images, the
// store is poisoned, and the panic continues — with the mutex free, so
// the caller's deferred Close returns instead of hanging.
func (tx *writeTx) runLocked(body func(tx *writeTx) error) error {
	s := tx.s
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			if tx.begun {
				tx.f.AbortVersionBatch()
			}
			s.poison("write transaction", fmt.Errorf("panic: %v", p))
			panic(p)
		}
	}()
	return tx.run(body)
}

// run is the part of write under the writer mutex.
func (tx *writeTx) run(body func(tx *writeTx) error) error {
	s := tx.s
	if s.closed {
		return ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return err
	}
	if err := tx.ctx.Err(); err != nil {
		return err
	}
	tx.f = s.m.File()
	if tx.f != nil {
		tx.f.SetAccount(&tx.acct.Account)
		defer tx.f.SetAccount(nil)
	}
	err := body(tx)
	if !tx.begun {
		return err
	}
	f, w := tx.f, tx.f.WAL()
	failed := "write transaction"
	switch {
	case w == nil:
	case err != nil:
		w.Append(storage.WALRecAbort, nil) // best effort; recovery ignores unterminated batches too
	default:
		tx.lsn, err = w.Append(storage.WALRecCommit, nil)
		failed = "wal commit append"
	}
	if err != nil {
		// The pre-images stay pending in the version chains, so a pinned
		// query keeps a committed view of the half-mutated pages; the
		// poison below makes the torn live state unreachable until reopen.
		f.AbortVersionBatch()
	} else {
		// Publish before the checkpoint: the checkpoint executes deferred
		// page frees, which must find the freed pages' committed images
		// already stamped in the version chains.
		f.PublishVersionBatch(tx.lsn)
		if w != nil && s.checkpointBytes > 0 && w.Size() > s.checkpointBytes {
			err = f.Checkpoint()
			failed = "checkpoint"
		}
	}
	s.endAccount(&tx.acct, err)
	if err != nil {
		s.poison(failed, err)
		return err
	}
	if s.obs != nil {
		s.obs.setGauges(s.m)
	}
	return nil
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
// recovery restores exactly the previously committed state.
//
// Apply is a write transaction (see Store.write): it takes only the
// writer mutex, which no query shares. A query that pinned its view
// before the commit keeps resolving the pre-batch page versions and
// placements for as long as it runs, and a query arriving mid-batch
// pins the previous commit — neither waits on the batch's page I/O, its
// in-lock checkpoint or its group-commit fsync.
func (s *Store) Apply(ctx context.Context, b *Batch) error {
	if b.Len() == 0 {
		return ctx.Err()
	}
	return s.write(ctx, func(tx *writeTx) error {
		if tx.f == nil {
			// Before Build there is no file to validate against and no WAL:
			// dispatch directly, so the first op fails with the CCAM
			// method's own "before Build" error.
			for i := range b.ops {
				if err := applyMutation(s.m, &b.ops[i].mut, b.ops[i].policy); err != nil {
					return err
				}
			}
			return nil
		}
		if err := validateBatch(tx.f, b); err != nil {
			return err
		}
		if err := tx.begin(opApply); err != nil {
			return err
		}
		for i := range b.ops {
			if err := s.applyOp(tx, i, &b.ops[i]); err != nil {
				return fmt.Errorf("ccam: apply op %d: %w", i, err)
			}
		}
		return nil
	})
}

// applyOp logs and applies op i of a validated batch. Under Metrics the
// mutation's own series is charged what the transaction's account grew
// by while it ran — the account is this transaction's alone, so the
// difference is the mutation's.
func (s *Store) applyOp(tx *writeTx, i int, op *queuedOp) error {
	f := tx.f
	if s.applyFaultHook != nil {
		if err := s.applyFaultHook(i); err != nil {
			return err
		}
	}
	// Log the logical mutation before touching any page (WAL-before-
	// data; a no-op without a WAL); reorganizations triggered by the op
	// log their own split/merge records after it.
	if err := f.LogMutation(&op.mut); err != nil {
		return err
	}
	if s.obs == nil {
		return applyMutation(s.m, &op.mut, op.policy)
	}
	before, start := tx.acct.Cost, time.Now()
	err := applyMutation(s.m, &op.mut, op.policy)
	s.obs.ops[mutationOps[op.mut.Kind]].charge(tx.acct.Cost.Sub(before), time.Since(start), err)
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

func (v *batchValidator) nodeExists(id NodeID) bool {
	if e, ok := v.nodes[id]; ok {
		return e
	}
	ok := v.f.Has(id)
	v.nodes[id] = ok
	return ok
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

func validateBatch(f *netfile.File, b *Batch) error {
	v := &batchValidator{
		f:     f,
		nodes: make(map[NodeID]bool),
		fresh: make(map[NodeID]bool),
		edges: make(map[[2]NodeID]bool),
	}
	for i := range b.ops {
		if err := v.validateOp(&b.ops[i].mut); err != nil {
			return fmt.Errorf("ccam: batch op %d: %w", i, err)
		}
	}
	return nil
}

func (v *batchValidator) validateOp(op *netfile.Mutation) error {
	switch op.Kind {
	case netfile.MutInsertNode:
		if err := (&InsertOp{Rec: op.Rec, PredCosts: op.PredCosts}).Validate(); err != nil {
			return err
		}
		rec := op.Rec
		if v.nodeExists(rec.ID) {
			return fmt.Errorf("insert node %d: %w", rec.ID, ErrNodeExists)
		}
		for _, sc := range rec.Succs {
			if !v.nodeExists(sc.To) {
				return fmt.Errorf("insert node %d: successor %d: %w", rec.ID, sc.To, ErrNotFound)
			}
		}
		for _, p := range rec.Preds {
			if !v.nodeExists(p) {
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
		if !v.nodeExists(op.ID) {
			return fmt.Errorf("delete node %d: %w", op.ID, ErrNotFound)
		}
		// Record the incident edges the delete removes, so later edge
		// ops in the batch see them gone.
		if !v.fresh[op.ID] {
			rec, err := v.f.Find(op.ID)
			if err != nil {
				return err
			}
			for _, sc := range rec.Succs {
				v.edges[[2]NodeID{op.ID, sc.To}] = false
			}
			for _, p := range rec.Preds {
				v.edges[[2]NodeID{p, op.ID}] = false
			}
		} else {
			for key := range v.edges {
				if key[0] == op.ID || key[1] == op.ID {
					v.edges[key] = false
				}
			}
		}
		v.nodes[op.ID] = false
		delete(v.fresh, op.ID)
		return nil
	case netfile.MutInsertEdge:
		if err := v.requireNodes(op.From, op.To); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.From, op.To); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("insert edge %d->%d: %w", op.From, op.To, ErrEdgeExists)
		}
		v.edges[[2]NodeID{op.From, op.To}] = true
		return nil
	case netfile.MutDeleteEdge:
		if err := v.requireNodes(op.From, op.To); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.From, op.To); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("delete edge %d->%d: %w", op.From, op.To, ErrEdgeMissing)
		}
		v.edges[[2]NodeID{op.From, op.To}] = false
		return nil
	case netfile.MutSetEdgeCost:
		if err := v.requireNodes(op.From, op.To); err != nil {
			return err
		}
		if ok, err := v.edgeExists(op.From, op.To); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("set edge cost %d->%d: %w", op.From, op.To, ErrEdgeMissing)
		}
		return nil
	default:
		return fmt.Errorf("unknown batch op kind %d", op.Kind)
	}
}

func (v *batchValidator) requireNodes(from, to NodeID) error {
	if !v.nodeExists(from) {
		return fmt.Errorf("node %d: %w", from, ErrNotFound)
	}
	if !v.nodeExists(to) {
		return fmt.Errorf("node %d: %w", to, ErrNotFound)
	}
	return nil
}
