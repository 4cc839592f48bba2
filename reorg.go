package ccam

import (
	"context"
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
// small write transaction through Store.write, the function behind
// Apply: it runs under the writer mutex, brackets itself in the WAL and
// publishes through the version layer — so queries keep their pinned
// views and are never torn, exactly as with any mutation batch.

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

	// highwater is the best CRR seen since the last Build, which zeroes
	// it (guarded by s.mu: rounds and Build both hold it).
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
		r.round() // its error is dropped: see round
	}
}

// Poke runs one reorganization round immediately (tests and the bench
// harness use it to avoid timing dependence). It is a no-op when the
// trigger condition does not hold.
func (s *Store) Poke() {
	if s.reorg != nil {
		s.reorg.round() // its error is dropped: see round
	}
}

// round checks the trigger and, if the clustering has decayed, runs
// one bounded re-clustering as a write transaction (Store.write), like
// an Apply: queries are unaffected, only writers queue behind it — for
// at most maxPages of reorganization work. The timer loop and Poke
// drop its error, as they may: a round that fails past its begin has
// poisoned the store, and one that fails before it has changed nothing
// and leaves the failure (a closed store, a broken log) for the next
// writer to meet.
func (r *reorganizer) round() error {
	return r.s.write(context.Background(), func(tx *writeTx) error {
		f := tx.f
		if f == nil {
			return nil
		}
		crr := f.PAG().Stats().CRR()
		if crr > r.highwater {
			r.highwater = crr
		}
		if crr >= r.highwater-r.drop {
			return nil
		}
		pids := r.targets(f.PAG())
		if len(pids) < 2 {
			return nil
		}
		plan, err := r.cm.PlanRecluster(pids)
		if err != nil {
			return err
		}
		if plan == nil {
			// Nothing would move: the neighborhood is a local optimum of
			// the clustering, so the decay is not recoverable here. Lower
			// the high-water mark so rounds stop until the placement
			// improves or decays further (backoff). Nothing was logged.
			r.highwater = crr
			return nil
		}
		if err := tx.begin(opNone); err != nil {
			return err
		}
		// A failed re-clustering may have moved records already.
		rewritten, err := r.cm.ReclusterPages(plan)
		if err != nil {
			return fmt.Errorf("ccam: background reorganization: %w", err)
		}
		// The round is whole: File.PAG settles its rewrites into the
		// summary before reading it.
		if after := f.PAG().Stats().CRR(); after <= crr+1e-9 {
			// Negligible gain: back off as above.
			r.highwater = after
		}
		if obs := r.s.obs; obs != nil {
			obs.reorgRounds.Inc()
			obs.reorgPages.Add(int64(rewritten))
		}
		return nil
	})
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
