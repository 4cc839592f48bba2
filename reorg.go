package ccam

import (
	"context"
	"fmt"
	"sort"

	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// This file is the incremental reorganizer, run one round per Poke:
// the store's answer to clustering decay. The paper's maintenance
// policies (§2.4) reorganize around each update; under sustained churn
// the placement still drifts, and the classical fix — rebuild the file
// — stops the world. A round instead reads the CRR of the file's PAG
// summary and, when it has decayed from its high-water mark,
// re-clusters the worst PAG neighborhoods a bounded number of pages at
// a time. Each round is a small write transaction through Store.write,
// the function behind Apply: it runs under the writer mutex, brackets
// itself in the WAL and publishes through the version layer — so
// queries keep their pinned views and are never torn, exactly as with
// any mutation batch.

const (
	// reorgTriggerDrop is the CRR decay from its high-water mark that
	// triggers a round.
	reorgTriggerDrop = 0.02
	// reorgMaxPages bounds the pages one round may re-cluster; small
	// rounds keep the writer mutex short.
	reorgMaxPages = 16
	// reorgSeeds is how many worst pages seed a round before PAG
	// expansion fills it up to the page budget.
	reorgSeeds = 4
)

// reorganizer is the state rounds keep between Pokes. Every field is
// guarded by s.mu: rounds and Build both hold it.
type reorganizer struct {
	s        *Store
	maxPages int
	drop     float64

	// highwater is the best CRR seen since the last Build, which zeroes
	// it.
	highwater float64
}

// Poke runs one reorganization round: when the file's CRR has decayed
// from its high-water mark, the worst PAG neighborhoods are re-clustered,
// at most 16 pages, as one write transaction. It is a no-op returning
// nil when the trigger condition does not hold or the store is not built
// yet. A round that fails past its begin poisons the store like a
// failed Apply; one that fails before it has changed nothing and leaves
// the failure (a closed store, a broken log) for the next writer to
// meet too. Callers wanting periodic rounds call it from a ticker of
// their own.
func (s *Store) Poke() error { return s.reorg.round() }

// round checks the trigger and, if the clustering has decayed, runs
// one bounded re-clustering as a write transaction (Store.write), like
// an Apply: queries are unaffected, only writers queue behind it — for
// at most maxPages of reorganization work.
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
		plan, err := r.s.m.PlanRecluster(pids)
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
		rewritten, err := r.s.m.ReclusterPages(plan)
		if err != nil {
			return fmt.Errorf("ccam: reorganization round: %w", err)
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
