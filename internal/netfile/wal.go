package netfile

import (
	"encoding/binary"
	"fmt"
	"math"

	"ccam/internal/graph"
	"ccam/internal/storage"
)

// This file gives the data file its write-ahead-log integration: the
// logical mutation codec (what batch records contain), deferred page
// frees, and the checkpoint that makes the no-steal/redo-only recovery
// protocol work (see internal/storage/wal.go for the protocol).

// MutKind tags a logical mutation record. The five kinds are the
// logical operations replay re-executes; the reorganizations they
// trigger write no record, because replay re-runs the operations.
type MutKind uint8

const (
	// MutInsertNode inserts a full node record (with the costs of its
	// incoming edges, so neighbor links can be rebuilt).
	MutInsertNode MutKind = iota + 1
	// MutDeleteNode removes a node and its incident edge entries.
	MutDeleteNode
	// MutInsertEdge adds edge from→to with a cost.
	MutInsertEdge
	// MutDeleteEdge removes edge from→to.
	MutDeleteEdge
	// MutSetEdgeCost updates the cost of edge from→to.
	MutSetEdgeCost
)

func (k MutKind) String() string {
	switch k {
	case MutInsertNode:
		return "insert-node"
	case MutDeleteNode:
		return "delete-node"
	case MutInsertEdge:
		return "insert-edge"
	case MutDeleteEdge:
		return "delete-edge"
	case MutSetEdgeCost:
		return "set-edge-cost"
	default:
		return fmt.Sprintf("MutKind(%d)", int(k))
	}
}

// Mutation is one logical mutation, the unit batch records are made
// of. Only the fields of the given kind are meaningful.
type Mutation struct {
	Kind MutKind
	// Rec and PredCosts describe MutInsertNode: the record to insert
	// and the costs of the incoming edges listed in Rec.Preds
	// (parallel slices).
	Rec       *Record
	PredCosts []float32
	// ID is the node of MutDeleteNode.
	ID graph.NodeID
	// From, To, Cost describe the edge mutations.
	From, To graph.NodeID
	Cost     float32
}

// EncodeMutation serializes a mutation for a WAL record payload.
func EncodeMutation(m *Mutation) ([]byte, error) {
	switch m.Kind {
	case MutInsertNode:
		if m.Rec == nil || len(m.PredCosts) != len(m.Rec.Preds) {
			return nil, fmt.Errorf("netfile: insert-node mutation needs a record with %d pred costs", len(m.PredCosts))
		}
		rec := EncodeRecord(m.Rec)
		buf := make([]byte, 1+4+len(rec)+4*len(m.PredCosts))
		buf[0] = byte(m.Kind)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(rec)))
		copy(buf[5:], rec)
		o := 5 + len(rec)
		for _, c := range m.PredCosts {
			binary.LittleEndian.PutUint32(buf[o:], math.Float32bits(c))
			o += 4
		}
		return buf, nil
	case MutDeleteNode:
		var buf [5]byte
		buf[0] = byte(m.Kind)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(m.ID))
		return buf[:], nil
	case MutInsertEdge, MutSetEdgeCost:
		var buf [13]byte
		buf[0] = byte(m.Kind)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(m.From))
		binary.LittleEndian.PutUint32(buf[5:9], uint32(m.To))
		binary.LittleEndian.PutUint32(buf[9:13], math.Float32bits(m.Cost))
		return buf[:], nil
	case MutDeleteEdge:
		var buf [9]byte
		buf[0] = byte(m.Kind)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(m.From))
		binary.LittleEndian.PutUint32(buf[5:9], uint32(m.To))
		return buf[:], nil
	default:
		return nil, fmt.Errorf("netfile: unknown mutation kind %d", m.Kind)
	}
}

// DecodeMutation parses a WAL mutation record payload.
func DecodeMutation(b []byte) (*Mutation, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty mutation record", storage.ErrWALCorrupt)
	}
	m := &Mutation{Kind: MutKind(b[0])}
	body := b[1:]
	switch m.Kind {
	case MutInsertNode:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: insert-node record too short", storage.ErrWALCorrupt)
		}
		rl := int(binary.LittleEndian.Uint32(body[0:4]))
		if len(body) < 4+rl {
			return nil, fmt.Errorf("%w: insert-node record truncated", storage.ErrWALCorrupt)
		}
		rec, err := DecodeRecord(body[4 : 4+rl])
		if err != nil {
			return nil, fmt.Errorf("%w: insert-node: %v", storage.ErrWALCorrupt, err)
		}
		m.Rec = rec
		rest := body[4+rl:]
		if len(rest) != 4*len(rec.Preds) {
			return nil, fmt.Errorf("%w: insert-node pred costs mismatch", storage.ErrWALCorrupt)
		}
		m.PredCosts = make([]float32, len(rec.Preds))
		for i := range m.PredCosts {
			m.PredCosts[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		return m, nil
	case MutDeleteNode:
		if len(body) != 4 {
			return nil, fmt.Errorf("%w: delete-node record length", storage.ErrWALCorrupt)
		}
		m.ID = graph.NodeID(binary.LittleEndian.Uint32(body))
		return m, nil
	case MutInsertEdge, MutSetEdgeCost:
		if len(body) != 12 {
			return nil, fmt.Errorf("%w: edge record length", storage.ErrWALCorrupt)
		}
		m.From = graph.NodeID(binary.LittleEndian.Uint32(body[0:4]))
		m.To = graph.NodeID(binary.LittleEndian.Uint32(body[4:8]))
		m.Cost = math.Float32frombits(binary.LittleEndian.Uint32(body[8:12]))
		return m, nil
	case MutDeleteEdge:
		if len(body) != 8 {
			return nil, fmt.Errorf("%w: delete-edge record length", storage.ErrWALCorrupt)
		}
		m.From = graph.NodeID(binary.LittleEndian.Uint32(body[0:4]))
		m.To = graph.NodeID(binary.LittleEndian.Uint32(body[4:8]))
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown mutation kind %d", storage.ErrWALCorrupt, b[0])
	}
}

// AttachWAL wires the write-ahead log into the file: the buffer pool
// goes no-steal (dirty pages only reach the store through Checkpoint),
// every dirty-page write is gated on a log sync, and page frees are
// deferred to the next checkpoint so no freed page can be recycled —
// and its zero-fill lost — before the checkpoint that records the
// free. fs is the FileStore underneath the data store (the allocator
// whose state checkpoints snapshot).
func (f *File) AttachWAL(w *storage.WAL, fs *storage.FileStore) {
	f.wal = w
	f.fstore = fs
	f.pool.SetNoSteal(true)
	f.pool.SetFlushGate(w.Sync)
}

// WAL returns the attached write-ahead log (nil without one).
func (f *File) WAL() *storage.WAL { return f.wal }

// LogMutation appends one logical mutation record to the WAL (a no-op
// without one). The caller seals the batch with a commit record; see
// the root package's Apply.
func (f *File) LogMutation(m *Mutation) error {
	if f.wal == nil {
		return nil
	}
	payload, err := EncodeMutation(m)
	if err != nil {
		return err
	}
	if _, err := f.wal.Append(storage.WALRecMutation, payload); err != nil {
		return err
	}
	return nil
}

// Checkpoint makes the data file self-contained again: it writes every
// dirty page image and the allocator state into the WAL, seals the
// checkpoint, executes the deferred page frees, flushes the pool, and
// stamps + syncs the data file. Afterwards the WAL before the
// checkpoint is pruned. The owner must hold the exclusive lock (no
// concurrent mutations or pinned pages).
func (f *File) Checkpoint() error {
	if f.wal == nil || f.fstore == nil {
		return fmt.Errorf("netfile: checkpoint without an attached WAL")
	}
	// The images stream from the frames into the log: under no-steal
	// and the owner's exclusive lock no dirty frame can be evicted or
	// rewritten while it is appended.
	startLSN := uint64(0)
	images := 0
	err := f.pool.EachDirty(func(id storage.PageID, img []byte) error {
		lsn, err := f.wal.AppendWith(storage.WALRecPageImage, storage.WALPageImageLen(img),
			func(payload []byte) { storage.PutWALPageImage(payload, id, img) })
		if err != nil {
			return err
		}
		if startLSN == 0 {
			startLSN = lsn
		}
		images++
		return nil
	})
	if err != nil {
		return err
	}
	// The allocator snapshot records the free chain as it will look
	// after the deferred frees execute: freeing pendingFree[0..k] in
	// order pushes each onto the chain head, so the final chain is the
	// reversed pending list in front of the current chain.
	next, chain, gen, flags, physPageSize := f.fstore.AllocSnapshot()
	full := make([]storage.PageID, 0, len(f.pendingFree)+len(chain))
	for i := len(f.pendingFree) - 1; i >= 0; i-- {
		full = append(full, f.pendingFree[i])
	}
	full = append(full, chain...)
	lsn, err := f.wal.Append(storage.WALRecAllocState,
		storage.EncodeWALAllocState(physPageSize, flags, gen, next, full))
	if err != nil {
		return err
	}
	if startLSN == 0 {
		startLSN = lsn
	}
	endLSN, err := f.wal.Append(storage.WALRecCheckpointEnd, storage.EncodeWALCheckpointEnd(startLSN))
	if err != nil {
		return err
	}
	if err := f.wal.Sync(); err != nil {
		return err
	}
	// The checkpoint is durable in the log; everything after this
	// point only has to complete before the NEXT checkpoint prunes
	// this one — recovery can always restore from the log alone.
	for _, pid := range f.pendingFree {
		if err := f.pool.Free(pid); err != nil {
			return fmt.Errorf("netfile: checkpoint free page %d: %w", pid, err)
		}
	}
	f.pendingFree = f.pendingFree[:0]
	if err := f.pool.FlushAll(); err != nil {
		return err
	}
	// A checkpoint inside a write transaction is that transaction's cost:
	// the flush wrote the pages imaged above.
	f.acct.Wrote(images)
	if err := f.fstore.SetAppliedLSN(endLSN); err != nil {
		return err
	}
	return f.wal.Prune(startLSN)
}
