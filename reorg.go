package ccam

import (
	"fmt"
	"sort"
	"sync"
	"time"

	iccam "ccam/internal/ccam"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// This file is the background incremental reorganizer
// (Options.BackgroundReorg): the store's answer to clustering decay.
// The paper's maintenance policies (§2.4) reorganize around each
// update; under sustained churn the placement still drifts, and the
// classical fix — rebuild the file — stops the world. The reorganizer
// instead watches the CRR of the file's PAG summary and, when it has
// decayed from its high-water mark, re-clusters the worst PAG
// neighborhoods a bounded number of pages at a time. Each round is a
// tiny write transaction: it runs under the store's write lock,
// brackets itself in the WAL like an Apply, and publishes through the
// version layer — so snapshot readers keep their pinned views and
// queries started mid-round are never torn, exactly as with any
// mutation batch.

// Reorganizer defaults (Options.ReorgInterval and friends override).
const (
	defaultReorgInterval    = 2 * time.Second
	defaultReorgMaxPages    = 16
	defaultReorgTriggerDrop = 0.02
	// reorgSeeds is how many worst pages seed a round before PAG
	// expansion fills it up to the page budget.
	reorgSeeds = 4
)

// reorganizer runs reorganization rounds on a timer until halted.
type reorganizer struct {
	s        *Store
	cm       *iccam.Method
	interval time.Duration
	maxPages int
	drop     float64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// highwater is the best CRR seen since the last Build (guarded by
	// s.mu: rounds and Build both hold it).
	highwater float64
}

// startReorganizer validates the configuration and launches the
// reorganizer goroutine. Called from Open/OpenPath before the store is
// shared.
func (s *Store) startReorganizer(opts Options) error {
	cm, ok := s.m.(*iccam.Method)
	if !ok {
		return fmt.Errorf("ccam: access method %q does not support background reorganization", s.m.Name())
	}
	r := &reorganizer{
		s:        s,
		cm:       cm,
		interval: opts.ReorgInterval,
		maxPages: opts.ReorgMaxPages,
		drop:     opts.ReorgTriggerDrop,
		stop:     make(chan struct{}),
	}
	if r.interval <= 0 {
		r.interval = defaultReorgInterval
	}
	if r.maxPages <= 0 {
		r.maxPages = defaultReorgMaxPages
	}
	if r.drop <= 0 {
		r.drop = defaultReorgTriggerDrop
	}
	s.reorg = r
	r.wg.Add(1)
	go r.loop()
	return nil
}

// halt stops the reorganizer and waits for an in-flight round;
// idempotent. Must be called without holding the store's locks.
func (r *reorganizer) halt() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// resetLocked restarts CRR high-water tracking (Build installs a fresh
// placement). Caller holds s.mu.
func (r *reorganizer) resetLocked() { r.highwater = 0 }

func (r *reorganizer) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.round()
	}
}

// Poke runs one reorganization round immediately (tests and the bench
// harness use it to avoid timing dependence). It is a no-op when the
// trigger condition does not hold.
func (s *Store) Poke() {
	if s.reorg != nil {
		s.reorg.round()
	}
}

// round checks the trigger and, if the clustering has decayed, runs
// one bounded re-clustering transaction. It takes the write lock like
// an Apply: snapshot readers are unaffected, only writers queue behind
// it — for at most maxPages of reorganization work.
func (r *reorganizer) round() {
	s := r.s
	s.mu.Lock()
	if s.closed || s.failedErr() != nil {
		s.mu.Unlock()
		return
	}
	f := s.m.File()
	if f == nil {
		s.mu.Unlock()
		return
	}
	crr := f.PAG().Stats().CRR()
	if crr > r.highwater {
		r.highwater = crr
	}
	if crr >= r.highwater-r.drop {
		s.mu.Unlock()
		return
	}
	pids := r.targets(f.PAG())
	if len(pids) < 2 {
		s.mu.Unlock()
		return
	}
	w := f.WAL()
	if w != nil {
		if _, err := w.Append(storage.WALRecBegin, nil); err != nil {
			s.mu.Unlock()
			return
		}
	}
	f.BeginVersionBatch()
	if err := r.cm.ReclusterPages(pids); err != nil {
		// A failed re-clustering may have moved records already; like a
		// mid-batch Apply failure, the memory state no longer matches
		// the committed prefix.
		if w != nil {
			w.Append(storage.WALRecAbort, nil)
		}
		f.AbortVersionBatch()
		s.poison(fmt.Errorf("%w: background reorganization failed, reopen to recover: %v", ErrClosed, err))
		s.mu.Unlock()
		return
	}
	var commitLSN uint64
	if w != nil {
		lsn, err := w.Append(storage.WALRecCommit, nil)
		if err != nil {
			f.AbortVersionBatch()
			s.poison(fmt.Errorf("%w: reorg commit append failed, reopen to recover: %v", ErrClosed, err))
			s.mu.Unlock()
			return
		}
		commitLSN = lsn
	}
	f.PublishVersionBatch(commitLSN)
	if s.obs != nil {
		s.obs.setGauges(f)
		s.obs.setSnapshotGauges(f)
		s.obs.reorgRounds.Inc()
		s.obs.reorgPages.Add(int64(len(pids)))
	}
	if after := f.PAG().Stats().CRR(); after <= crr+1e-9 {
		// Negligible gain: the decay is not recoverable by local
		// re-clustering. Lower the high-water mark so rounds stop until
		// the placement improves or decays further (backoff).
		r.highwater = after
	}
	if w != nil && s.checkpointBytes > 0 && w.Size() > s.checkpointBytes {
		if err := f.Checkpoint(); err != nil {
			s.poison(fmt.Errorf("%w: checkpoint failed, reopen to recover: %v", ErrClosed, err))
			s.mu.Unlock()
			return
		}
	}
	s.mu.Unlock()
	if w != nil {
		w.Commit(commitLSN)
	}
}

// targets picks the round's page set from the PAG summary, reading no
// page: the pages with the most split edges, each expanded with its
// PAG neighbors (most connected first), bounded by maxPages.
func (r *reorganizer) targets(pag netfile.PAGView) []storage.PageID {
	set := make(map[storage.PageID]bool, r.maxPages)
	for _, pid := range pag.WorstPages(reorgSeeds) {
		if len(set) >= r.maxPages {
			break
		}
		set[pid] = true
		for _, nb := range pag.Neighbors(pid) {
			if len(set) >= r.maxPages {
				break
			}
			set[nb.Page] = true
		}
	}
	pids := make([]storage.PageID, 0, len(set))
	for pid := range set {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}
