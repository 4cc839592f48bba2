package ccam

import (
	"fmt"

	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// This file holds the facade side of the write-ahead log: replay of
// the committed tail at OpenPath time, and the read-only accessors
// that expose recovery results. The log format and the checkpoint
// protocol live in internal/storage; the logical mutation codec in
// internal/netfile.

// WALStats is a point-in-time view of the store's write-ahead log.
type WALStats struct {
	// Enabled reports whether the store logs its mutations.
	Enabled bool
	// AppendedLSN is the highest LSN written to the OS.
	AppendedLSN uint64
	// DurableLSN is the highest LSN known fsynced.
	DurableLSN uint64
	// SizeBytes is the current on-disk size of the log segments.
	SizeBytes int64
	// Fsyncs is the number of fsyncs the log has issued and
	// GroupedCommits the number of commits those fsyncs acknowledged;
	// their ratio is the mean group-commit size. Counted even when the
	// metrics registry is disabled.
	Fsyncs         int64
	GroupedCommits int64
	// ReplayedBatches and ReplayedMutations count what OpenPath
	// recovered from the log tail when this store was opened.
	ReplayedBatches   int
	ReplayedMutations int
}

// WALStats returns the current state of the store's write-ahead log;
// Enabled is false (and everything zero) without one.
func (s *Store) WALStats() WALStats {
	st := WALStats{
		ReplayedBatches:   s.replayedBatches,
		ReplayedMutations: s.replayedMutations,
	}
	if s.wal == nil {
		return st
	}
	// Under the writer mutex no transaction appends between the reads.
	s.live(func(*netfile.File) {
		st.Enabled = true
		st.AppendedLSN = s.wal.AppendedLSN()
		st.DurableLSN = s.wal.DurableLSN()
		st.SizeBytes = s.wal.Size()
		st.Fsyncs, st.GroupedCommits = s.wal.FsyncStats()
	})
	return st
}

// replayWAL re-executes every committed batch whose commit record has
// an LSN past `after` (the end of the checkpoint the data file was
// restored to). Batches are re-applied in log order through the access
// method, so the logical state — nodes, successor lists, edge costs —
// converges to exactly the committed prefix. Placement does not:
// every mutation replays FirstOrder and split/merge records are
// skipped, so the second-order, higher-order and lazy reorganizations
// and the reorganizer rounds committed since the last checkpoint are
// not reproduced: ROADMAP item 6 measured the recovered CRR a median
// 0.006 to 0.050 (worst 0.074) below the committed one over second-order
// streams. Unterminated batches (a torn tail) and aborted batches are
// discarded.
func replayWAL(m netfile.AccessMethod, recs []storage.WALRecord, after uint64) (batches, mutations int, err error) {
	var pending []*netfile.Mutation
	inBatch := false
	for _, r := range recs {
		if r.LSN <= after {
			continue
		}
		switch r.Type {
		case storage.WALRecBegin:
			pending = pending[:0]
			inBatch = true
		case storage.WALRecMutation:
			if !inBatch {
				continue
			}
			mut, derr := netfile.DecodeMutation(r.Payload)
			if derr != nil {
				return batches, mutations, fmt.Errorf("lsn %d: %w", r.LSN, derr)
			}
			pending = append(pending, mut)
		case storage.WALRecAbort:
			pending = pending[:0]
			inBatch = false
		case storage.WALRecCommit:
			if !inBatch {
				continue
			}
			for _, mut := range pending {
				// Replay runs first-order: the policy affects placement
				// quality, never logical contents, and the cheapest one
				// keeps recovery fast.
				if aerr := applyMutation(m, mut, FirstOrder); aerr != nil {
					return batches, mutations, fmt.Errorf("commit lsn %d, %s: %w", r.LSN, mut.Kind, aerr)
				}
				mutations++
			}
			batches++
			pending = pending[:0]
			inBatch = false
		default:
			// Checkpoint records (page images, alloc state, end marker)
			// only occur at or before `after`; tolerate strays.
		}
	}
	return batches, mutations, nil
}
