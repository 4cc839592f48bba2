package ccam

import (
	"fmt"

	iccam "ccam/internal/ccam"
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
	// AppendedLSN is the highest LSN appended to the log. A
	// transaction's records are buffered until its commit writes them
	// to the OS in one write, so between calls every appended LSN has
	// been written.
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
	// Checkpoints counts the checkpoints taken since the store was
	// opened (Build's and OpenPath's own among them), and
	// BytesSinceCheckpoint the bytes logged since the last one — the
	// tail a recovery would replay, which Options.CheckpointBytes
	// bounds.
	Checkpoints          int64
	BytesSinceCheckpoint int64
	// ReplayedBatches counts the commits OpenPath replayed from the log
	// tail when this store was opened, a reorganizer round's commit
	// (which seals no mutation) among them, and ReplayedMutations the
	// logical mutations those commits sealed.
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
		st.Checkpoints = s.wal.Checkpoints()
		st.BytesSinceCheckpoint = s.wal.BytesSinceCheckpoint()
	})
	return st
}

// replayWAL re-executes every committed batch whose commit record has
// an LSN past `after`, the end of the checkpoint the data file was
// restored to. A commit seals every mutation record logged since the
// previous commit or checkpoint end, so the batches are re-applied in
// log order through the CCAM method and the logical state — nodes,
// successor lists, edge costs — converges to exactly the committed
// prefix. Mutation records no commit follows (a torn tail, or the batch
// whose failure poisoned the store) are discarded, and checkpoint
// records past `after` belong to a checkpoint whose end never made it.
// Placement does not converge: every mutation replays FirstOrder and
// reorganizations write no record, so the second-order, higher-order
// and lazy reorganizations and the reorganizer rounds committed since
// the last checkpoint are not reproduced: ROADMAP item 6 measured the
// recovered CRR a median 0.006 to 0.050 (worst 0.074) below the
// committed one over second-order streams.
func replayWAL(m *iccam.Method, recs []storage.WALRecord, after uint64) (batches, mutations int, err error) {
	var pending []*netfile.Mutation
	for _, r := range recs {
		if r.LSN <= after {
			continue
		}
		switch r.Type {
		case storage.WALRecMutation:
			mut, derr := netfile.DecodeMutation(r.Payload)
			if derr != nil {
				return batches, mutations, fmt.Errorf("lsn %d: %w", r.LSN, derr)
			}
			pending = append(pending, mut)
		case storage.WALRecCommit:
			for _, mut := range pending {
				// Replay runs first-order: the policy affects placement
				// quality, never logical contents, and the cheapest one
				// keeps recovery fast.
				if aerr := applyMutation(m, mut, FirstOrder); aerr != nil {
					return batches, mutations, fmt.Errorf("commit lsn %d, %s: %w", r.LSN, mut.Kind, aerr)
				}
			}
			batches++
			mutations += len(pending)
			pending = pending[:0]
		}
	}
	return batches, mutations, nil
}
