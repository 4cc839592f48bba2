package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccam/internal/metrics"
)

// This file implements the write-ahead log behind the durable mutation
// path. The WAL is a directory of segment files next to the data file;
// every record carries a monotonic LSN and a CRC32-C (the same
// Castagnoli table the page checksums use), so a torn tail after a
// crash is detected and truncated rather than misread.
//
// Durability protocol (redo-only, no-steal):
//
//   - Mutations append logical records, then a commit record that seals
//     every mutation record since the previous commit or checkpoint
//     end. There is no begin or abort record: a batch that fails before
//     its commit leaves its mutations unsealed, and recovery drops them.
//     The data file is NOT written between checkpoints — the buffer
//     pool runs no-steal, so every physical page write between
//     checkpoints is allocator noise (zero-fills, header churn) that
//     recovery discards.
//   - Checkpoint writes full page images of every dirty page plus an
//     allocator snapshot into the WAL, marks the checkpoint complete,
//     then flushes the data file. The WAL always retains its last
//     complete checkpoint, so recovery can rebuild the data file from
//     the WAL alone no matter where the flush tore.
//   - Recovery restores the last complete checkpoint image into the
//     data file raw (pages, free chain, header), then redoes committed
//     logical records with LSN past the checkpoint.
//
// Group commit: concurrent committers elect a leader under a dedicated
// sync mutex; the leader fsyncs once for everything appended so far and
// followers observe the advanced durable LSN without touching the
// device.
//
// Buffered appends: Append encodes its record into the log's buffer,
// and the buffer reaches the OS in one write at Commit or Sync, when it
// would pass walChunkBytes, at a rotation, or at Close. A commit is
// therefore one write system call, and a checkpoint's images stream out
// in chunks of at most walChunkBytes. Rotation is still decided record
// by record against the segment's logical end, so the bytes each
// segment holds do not depend on the buffering.

// SyncPolicy selects when commits are forced to stable storage.
type SyncPolicy int

const (
	// SyncGroupCommit (the default) coalesces concurrent committers
	// into one fsync: a commit blocks until its LSN is durable, but
	// only one of the waiters issues the fsync. A lone committer
	// fsyncs once per commit.
	SyncGroupCommit SyncPolicy = 0
	// SyncNone never fsyncs on commit; durability rides on the OS.
	// Commits acknowledged under SyncNone can be lost by a crash. Its
	// value stays 2: the retired fsync-per-commit policy was 1, and
	// Commit treats every value but SyncNone as group commit, so a
	// stale 1 stays durable.
	SyncNone SyncPolicy = 2
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroupCommit:
		return "group"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// WALRecordType tags a WAL record. The values are part of the on-disk
// format; 1 and 4 are retired and never reused.
type WALRecordType uint8

const (
	// WALRecMutation is one logical mutation (payload encoded by the
	// netfile layer).
	WALRecMutation WALRecordType = 2
	// WALRecCommit seals a batch: every mutation record since the
	// previous commit or checkpoint end is atomic with it. A commit with
	// no mutation record before it seals nothing.
	WALRecCommit WALRecordType = 3
	// WALRecPageImage is a checkpoint page image:
	// [page id u32][logical payload].
	WALRecPageImage WALRecordType = 5
	// WALRecAllocState is the checkpoint allocator snapshot:
	// [phys page size u32][flags u32][gen u64][next u32][nchain u32][chain u32...].
	WALRecAllocState WALRecordType = 6
	// WALRecCheckpointEnd seals a checkpoint: [start LSN u64]. Only a
	// checkpoint whose end record survived is restorable.
	WALRecCheckpointEnd WALRecordType = 7
)

func (t WALRecordType) String() string {
	switch t {
	case WALRecMutation:
		return "mutation"
	case WALRecCommit:
		return "commit"
	case WALRecPageImage:
		return "page-image"
	case WALRecAllocState:
		return "alloc-state"
	case WALRecCheckpointEnd:
		return "checkpoint-end"
	default:
		return fmt.Sprintf("WALRecordType(%d)", int(t))
	}
}

// WAL segment layout: a 16-byte header [walMagic u64][first LSN u64],
// then records back to back:
//
//	[payload len u32][lsn u64][type u8][payload][crc32c u32]
//
// The CRC covers everything before it (len through payload). LSNs are
// assigned sequentially starting at 1 and never reused, including
// across Reset.
const (
	walMagic        uint64 = 0xCCA4F11E0057A101
	walSegHeaderLen        = WALSegmentHeaderLen
	// WALSegmentHeaderLen is the size of the per-segment header; the
	// first record of a segment starts at this offset (crash drills
	// cut "empty log" there).
	WALSegmentHeaderLen = 16
	walRecHeaderLen     = 4 + 8 + 1
	walRecOverhead      = walRecHeaderLen + 4
	walMaxPayload       = 1 << 28

	// DefaultWALSegmentBytes is the rotation threshold for segment
	// files.
	DefaultWALSegmentBytes = 1 << 20

	// walChunkBytes bounds one write of the log buffer: an append that
	// would grow a non-empty buffer past it writes the buffer out
	// first. A single record larger than this is written alone.
	walChunkBytes = 256 << 10
)

// maxCommitDelay caps the group-formation wait a leader adds before
// forcing the log, however slow the device's fsyncs are.
const maxCommitDelay = 500 * time.Microsecond

// WALSuffix is appended to the data file path to name the WAL
// directory.
const WALSuffix = ".wal"

// WALDir returns the WAL directory path for a data file path.
func WALDir(dataPath string) string { return dataPath + WALSuffix }

// CopyStore copies the data file at src, and the segments of its WAL
// directory when it has one, to dst and WALDir(dst), as a crash would
// leave them: a reopen of the copy never touches the original.
func CopyStore(dst, src string) error {
	ents, err := os.ReadDir(WALDir(src))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	suffixes := []string{""}
	if err == nil {
		if err := os.MkdirAll(WALDir(dst), 0o755); err != nil {
			return err
		}
		for _, e := range ents {
			suffixes = append(suffixes, WALSuffix+string(filepath.Separator)+e.Name())
		}
	}
	for _, sfx := range suffixes {
		b, err := os.ReadFile(src + sfx)
		if err == nil {
			err = os.WriteFile(dst+sfx, b, 0o644)
		}
		if err != nil {
			return fmt.Errorf("storage: copy store: %w", err)
		}
	}
	return nil
}

// ErrWALCorrupt reports a WAL segment whose contents fail structural or
// checksum validation beyond an ordinary torn tail.
var ErrWALCorrupt = errors.New("storage: wal corrupt")

// WALRecord is one decoded log record.
type WALRecord struct {
	LSN     uint64
	Type    WALRecordType
	Payload []byte
}

// WALInstrumentation carries the metric hooks the facade wires in. Any
// field may be nil. The log's counts (FsyncStats, Appends,
// BytesAppended, Checkpoints) are kept whether or not it is
// instrumented; a registry reads them from there.
type WALInstrumentation struct {
	GroupSize *metrics.Histogram // commits acknowledged per fsync
}

type walSegment struct {
	index    uint64
	firstLSN uint64
	path     string
	// f is non-nil for the active segment and for segments rotated out
	// since the last Prune: a group-commit leader may hold a reference
	// to a just-rotated file, so handles are only closed once a prune
	// (or Close) proves no syncer can still reach them.
	f *os.File
}

// WAL is a segmented, checksummed write-ahead log with group commit.
//
// Concurrency: Append and the buffer's writes serialize under mu;
// Commit runs leader-elected fsyncs under syncMu without holding mu, so
// appenders are never blocked behind the device. Any write or fsync
// failure poisons the log (the error is sticky) — a WAL that may have
// lost a record must not accept more.
type WAL struct {
	dir          string
	policy       SyncPolicy
	segmentBytes int64

	mu sync.Mutex
	f  *os.File // active segment
	// buf holds the records appended to the active segment and not yet
	// written; they start at file offset off-len(buf).
	buf      []byte
	off      int64 // end of the active segment, buffered records included
	nextLSN  uint64
	segments []walSegment
	closed   bool

	appended atomic.Uint64 // highest LSN appended, buffered or written
	written  atomic.Uint64 // highest LSN written to the OS
	durable  atomic.Uint64 // highest LSN known fsynced
	pending  atomic.Int64  // committers awaiting the next fsync
	fsyncs   atomic.Int64  // fsyncs issued on the log
	grouped  atomic.Int64  // commits acknowledged by those fsyncs

	// sinceCheckpoint counts the bytes appended since the last
	// checkpoint-end record (the checkpoint's own records excluded):
	// the log recovery replays. checkpoints counts the checkpoint-end
	// records appended since the log was opened, appends and bytes every
	// record and its bytes; Reset zeroes none of the three.
	sinceCheckpoint atomic.Int64
	checkpoints     atomic.Int64
	appends         atomic.Int64
	bytes           atomic.Int64

	syncNanos atomic.Int64 // EWMA of fsync duration, for group formation
	prevGroup atomic.Int64 // size of the last acknowledged commit group

	syncMu sync.Mutex
	err    atomic.Pointer[error]
	inst   atomic.Pointer[WALInstrumentation]

	roundMu sync.Mutex // guards leading; roundCv's locker
	roundCv *sync.Cond // broadcast when a leader round ends
	leading bool       // a group-commit leader is at the device
}

// CreateWAL creates a fresh, empty WAL directory at dir (removing any
// previous log there). segmentBytes <= 0 selects the default rotation
// threshold.
func CreateWAL(dir string, policy SyncPolicy, segmentBytes int64) (*WAL, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("storage: wal create: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: wal create: %w", err)
	}
	w := newWAL(dir, policy, segmentBytes)
	w.nextLSN = 1
	if err := w.openSegmentLocked(1, 1); err != nil {
		return nil, err
	}
	return w, nil
}

func newWAL(dir string, policy SyncPolicy, segmentBytes int64) *WAL {
	if segmentBytes <= 0 {
		segmentBytes = DefaultWALSegmentBytes
	}
	if segmentBytes < walSegHeaderLen+walRecOverhead {
		segmentBytes = walSegHeaderLen + walRecOverhead
	}
	w := &WAL{dir: dir, policy: policy, segmentBytes: segmentBytes}
	w.roundCv = sync.NewCond(&w.roundMu)
	return w
}

// openSegmentLocked creates segment file `index` whose first record
// will carry firstLSN, and makes it the active segment. Caller holds
// mu (or has exclusive access during construction).
func (w *WAL) openSegmentLocked(index, firstLSN uint64) error {
	path := filepath.Join(w.dir, segmentName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal segment %d: %w", index, err)
	}
	var hdr [walSegHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal segment %d header: %w", index, err)
	}
	w.f = f
	w.off = walSegHeaderLen
	w.segments = append(w.segments, walSegment{index: index, firstLSN: firstLSN, path: path, f: f})
	return nil
}

func segmentName(index uint64) string { return fmt.Sprintf("%08d.wal", index) }

func parseSegmentName(name string) (uint64, bool) {
	if filepath.Ext(name) != WALSuffix {
		return 0, false
	}
	base := name[:len(name)-len(WALSuffix)]
	if len(base) != 8 {
		return 0, false
	}
	var idx uint64
	for _, c := range base {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// Policy returns the commit sync policy.
func (w *WAL) Policy() SyncPolicy { return w.policy }

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Instrument wires metric hooks into the log.
func (w *WAL) Instrument(in WALInstrumentation) { w.inst.Store(&in) }

// Err returns the sticky failure, if the log is poisoned.
func (w *WAL) Err() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *WAL) fail(err error) error {
	werr := fmt.Errorf("storage: wal poisoned: %w", err)
	w.err.CompareAndSwap(nil, &werr)
	return w.Err()
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// AppendedLSN returns the highest LSN appended. Its bytes may still be
// in the log's buffer; the Commit or Sync that covers it writes them.
func (w *WAL) AppendedLSN() uint64 { return w.appended.Load() }

// BytesSinceCheckpoint returns the bytes appended since the last
// checkpoint's end record, the checkpoint's own images excluded: the
// length of the log tail a recovery would replay. The count is kept in
// memory from the log's creation or opening; OpenWAL starts it at 0,
// because the store that opens a log checkpoints right after its
// recovery, which resets it anyway.
func (w *WAL) BytesSinceCheckpoint() int64 { return w.sinceCheckpoint.Load() }

// Checkpoints returns the number of checkpoints (checkpoint-end
// records) appended since the log was created or opened.
func (w *WAL) Checkpoints() int64 { return w.checkpoints.Load() }

// Appends returns the number of records appended since the log was
// created or opened.
func (w *WAL) Appends() int64 { return w.appends.Load() }

// BytesAppended returns the bytes of those records, framing included.
func (w *WAL) BytesAppended() int64 { return w.bytes.Load() }

// FsyncStats returns the number of fsyncs the log has issued and the
// number of commits those fsyncs acknowledged (their ratio is the mean
// group-commit size). Always counted, independent of any attached
// instrumentation.
func (w *WAL) FsyncStats() (fsyncs, commits int64) {
	return w.fsyncs.Load(), w.grouped.Load()
}

// Append adds one record to the log and returns its LSN. The record is
// buffered: it reaches the OS at the next Commit or Sync that covers
// it, or earlier when the buffer fills or the segment rotates.
func (w *WAL) Append(t WALRecordType, payload []byte) (uint64, error) {
	return w.AppendWith(t, len(payload), func(p []byte) { copy(p, payload) })
}

// AppendWith is Append for a payload of n bytes that encode writes
// straight into the log's buffer, so a record built from parts (a
// checkpoint's page image behind its page id) is copied once. encode
// runs under the log's lock and must not call the log.
func (w *WAL) AppendWith(t WALRecordType, n int, encode func(payload []byte)) (uint64, error) {
	if n > walMaxPayload {
		return 0, fmt.Errorf("storage: wal record payload %d bytes exceeds limit", n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrStoreClosed
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	recLen := int64(walRecOverhead + n)
	if w.off+recLen > w.segmentBytes && w.off > walSegHeaderLen {
		if err := w.rotateLocked(); err != nil {
			return 0, w.fail(err)
		}
	}
	if len(w.buf) > 0 && int64(len(w.buf))+recLen > walChunkBytes {
		if err := w.writeLocked(); err != nil {
			return 0, err
		}
	}
	lsn := w.nextLSN
	at := len(w.buf)
	w.buf = append(w.buf, make([]byte, recLen)...)
	rec := w.buf[at:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(n))
	binary.LittleEndian.PutUint64(rec[4:12], lsn)
	rec[12] = byte(t)
	encode(rec[walRecHeaderLen : walRecHeaderLen+n])
	crc := crc32.Checksum(rec[:walRecHeaderLen+n], fsCRCTable)
	binary.LittleEndian.PutUint32(rec[walRecHeaderLen+n:], crc)
	w.off += recLen
	w.nextLSN++
	w.appended.Store(lsn)
	if t == WALRecCheckpointEnd {
		w.sinceCheckpoint.Store(0)
		w.checkpoints.Add(1)
	} else {
		w.sinceCheckpoint.Add(recLen)
	}
	w.appends.Add(1)
	w.bytes.Add(recLen)
	return lsn, nil
}

// writeLocked writes the buffered records to the active segment in one
// write. A failure poisons the log. Caller holds mu.
func (w *WAL) writeLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.off-int64(len(w.buf))); err != nil {
		return w.fail(fmt.Errorf("write lsn %d..%d: %w", w.written.Load()+1, w.nextLSN-1, err))
	}
	w.buf = w.buf[:0]
	w.written.Store(w.nextLSN - 1)
	return nil
}

// writeOut writes the buffered records to the OS unless lsn is already
// there.
func (w *WAL) writeOut(lsn uint64) error {
	if w.written.Load() >= lsn {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	if err := w.Err(); err != nil {
		return err
	}
	return w.writeLocked()
}

// rotateLocked seals the active segment (writing out its buffered
// records and fsyncing it, so everything in it becomes durable) and
// opens the next one. The sealed segment's handle stays open until the
// next Prune/Close so a concurrent group-commit leader holding it can
// still fsync safely.
func (w *WAL) rotateLocked() error {
	if err := w.writeLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("rotate sync: %w", err)
	}
	w.advanceDurable(w.nextLSN - 1)
	last := w.segments[len(w.segments)-1]
	return w.openSegmentLocked(last.index+1, w.nextLSN)
}

func (w *WAL) advanceDurable(target uint64) {
	for {
		cur := w.durable.Load()
		if cur >= target || w.durable.CompareAndSwap(cur, target) {
			return
		}
	}
}

// Commit writes the log through lsn to the OS, in one write for
// whatever is buffered, and makes it durable according to the sync
// policy. Under SyncGroupCommit concurrent callers coalesce into one
// fsync.
func (w *WAL) Commit(lsn uint64) error {
	if err := w.Err(); err != nil {
		return err
	}
	if err := w.writeOut(lsn); err != nil {
		return err
	}
	if w.policy == SyncNone || w.durable.Load() >= lsn {
		return nil
	}
	w.pending.Add(1)
	return w.syncTo(lsn)
}

// Sync writes out and forces everything appended so far to stable
// storage.
func (w *WAL) Sync() error {
	lsn := w.appended.Load()
	if err := w.writeOut(lsn); err != nil {
		return err
	}
	w.pending.Add(1)
	return w.syncTo(lsn)
}

// syncTo blocks until target is durable. One committer at a time holds
// leadership (syncMu, taken by TryLock) and fsyncs for the whole group.
// Followers do NOT queue on syncMu: a mutex queue is woken one waiter
// at a time and freshly-arriving committers barge past it, which
// starves the group down to ~1 commit per fsync. Instead they wait for
// the leader's round to end, then re-check durability together — at
// most one of them takes the next round.
func (w *WAL) syncTo(target uint64) error {
	for {
		if w.durable.Load() >= target {
			return nil
		}
		if err := w.Err(); err != nil {
			return err
		}
		if w.syncMu.TryLock() {
			if err := w.leadRound(); err != nil {
				return err
			}
			continue
		}
		w.roundMu.Lock()
		for w.leading && w.durable.Load() < target {
			w.roundCv.Wait()
		}
		w.roundMu.Unlock()
	}
}

// leadRound runs one leader round: group formation, one fsync covering
// everything appended so far, then a broadcast that releases the
// followers to re-check durability. Caller won syncMu via TryLock;
// leadRound releases it.
func (w *WAL) leadRound() error {
	w.roundMu.Lock()
	w.leading = true
	w.roundMu.Unlock()
	defer func() {
		w.roundMu.Lock()
		w.leading = false
		w.roundMu.Unlock()
		w.roundCv.Broadcast()
		w.syncMu.Unlock()
	}()
	// Group formation (an adaptive commit delay): concurrent
	// committers arrive staggered because their appends serialize
	// behind the store latch, so the leader elected right after the
	// previous fsync would otherwise force a near-empty fsync and push
	// everyone else into the next one. When the log shows concurrency
	// — other committers already waiting, or the previous fsync
	// acknowledged a group — the leader waits about half a device sync
	// so in-flight commits ride this fsync instead. An uncontended
	// commit never waits, and the delay tracks the measured fsync
	// latency, so it stays a fraction of what the device charges
	// anyway. Spin-yield rather than sleep: the timer wheel rounds a
	// microsecond sleep up by more than a whole device sync, and only
	// the elected leader pays the spin.
	if w.pending.Load() > 1 || w.prevGroup.Load() > 1 {
		if d := time.Duration(w.syncNanos.Load() / 2); d > 0 {
			if d > maxCommitDelay {
				d = maxCommitDelay
			}
			for deadline := time.Now().Add(d); time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	}
	return w.leaderSync(w.pending.Swap(0))
}

// leaderSync fsyncs the active segment and advances the durable LSN.
// Caller holds syncMu. group is the number of commits this fsync
// acknowledges (for the group-size histogram).
func (w *WAL) leaderSync(group int64) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrStoreClosed
	}
	f := w.f
	high := w.written.Load()
	w.mu.Unlock()
	start := time.Now()
	if err := f.Sync(); err != nil {
		return w.fail(fmt.Errorf("commit sync: %w", err))
	}
	// Fold the sync duration into the EWMA that sizes the group
	// formation delay.
	d := time.Since(start).Nanoseconds()
	if old := w.syncNanos.Load(); old > 0 {
		d = (3*old + d) / 4
	}
	w.syncNanos.Store(d)
	w.advanceDurable(high)
	w.fsyncs.Add(1)
	if group > 0 {
		w.grouped.Add(group)
		w.prevGroup.Store(group)
	}
	if in := w.inst.Load(); in != nil && group > 0 {
		in.GroupSize.Observe(group)
	}
	return nil
}

// Prune removes whole segments that only contain records with LSN <
// beforeLSN. The active segment is never removed, and a segment is
// only removable when the following segment proves every record at or
// past beforeLSN lives elsewhere. Retired file handles from earlier
// rotations are closed here.
func (w *WAL) Prune(beforeLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	keep := 0
	for i := range w.segments {
		if i+1 >= len(w.segments) || w.segments[i+1].firstLSN > beforeLSN {
			break
		}
		keep = i + 1
	}
	for i := 0; i < keep; i++ {
		s := w.segments[i]
		if s.f != nil {
			s.f.Close()
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("storage: wal prune %s: %w", s.path, err)
		}
	}
	w.segments = append(w.segments[:0], w.segments[keep:]...)
	// Handles of rotated-out (but still retained) segments can be
	// released too: only the active segment is ever fsynced.
	for i := range w.segments[:len(w.segments)-1] {
		if w.segments[i].f != nil {
			w.segments[i].f.Close()
			w.segments[i].f = nil
		}
	}
	return nil
}

// Reset discards every record and starts a fresh segment. LSNs stay
// monotonic across the reset. Used when the store is rebuilt from
// scratch (Build), which supersedes all logged history.
func (w *WAL) Reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrStoreClosed
	}
	if err := w.Err(); err != nil {
		return err
	}
	var lastIndex uint64
	for _, s := range w.segments {
		if s.f != nil {
			s.f.Close()
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("storage: wal reset %s: %w", s.path, err)
		}
		lastIndex = s.index
	}
	w.segments = w.segments[:0]
	w.f = nil
	w.buf = w.buf[:0]
	if err := w.openSegmentLocked(lastIndex+1, w.nextLSN); err != nil {
		return w.fail(err)
	}
	w.durable.Store(w.nextLSN - 1)
	w.written.Store(w.nextLSN - 1)
	w.appended.Store(w.nextLSN - 1)
	w.sinceCheckpoint.Store(0)
	return nil
}

// Size returns the total bytes of the log's segments, buffered records
// included. It stats every retained segment; the commit path reads
// BytesSinceCheckpoint instead.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, s := range w.segments[:max(0, len(w.segments)-1)] {
		if st, err := os.Stat(s.path); err == nil {
			total += st.Size()
		}
	}
	total += w.off
	return total
}

// Close fsyncs and closes every segment handle. The WAL must not be
// used afterwards.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	if w.f != nil && w.Err() == nil {
		if err := w.writeLocked(); err != nil {
			first = err
		} else if err := w.f.Sync(); err != nil {
			first = fmt.Errorf("storage: wal close sync: %w", err)
		} else {
			w.advanceDurable(w.nextLSN - 1)
		}
	}
	for i := range w.segments {
		if w.segments[i].f != nil {
			if err := w.segments[i].f.Close(); err != nil && first == nil {
				first = fmt.Errorf("storage: wal close: %w", err)
			}
			w.segments[i].f = nil
		}
	}
	return first
}

// OpenWAL opens an existing WAL directory, truncating a torn tail:
// the first record that fails validation marks the end of the log, the
// segment is cut there (fsynced), and any later segments are removed.
// The returned WAL appends after the last valid record.
func OpenWAL(dir string, policy SyncPolicy, segmentBytes int64) (*WAL, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return CreateWAL(dir, policy, segmentBytes)
	}
	w := newWAL(dir, policy, segmentBytes)
	lastLSN := segs[0].firstLSN - 1
	cut := -1 // index of the segment where the log ends
	var cutOff int64
	for i, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("storage: wal open %s: %w", s.path, err)
		}
		if s.firstLSN != lastLSN+1 {
			// A gap between segments: everything from here on is
			// unreachable (e.g. leftovers of a crashed reset).
			cut = i - 1
			break
		}
		recs, validEnd, _ := scanSegment(data, s.firstLSN)
		if len(recs) > 0 {
			lastLSN = recs[len(recs)-1].LSN
		}
		if validEnd < len(data) || len(recs) == 0 && validEnd <= walSegHeaderLen && i < len(segs)-1 {
			cut = i
			cutOff = int64(validEnd)
			break
		}
		cut = i
		cutOff = int64(validEnd)
	}
	if cut < 0 {
		return CreateWAL(dir, policy, segmentBytes)
	}
	// Drop segments after the cut, truncate the cut segment at the
	// last valid record, and reopen it for appending.
	for _, s := range segs[cut+1:] {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("storage: wal open: drop %s: %w", s.path, err)
		}
	}
	s := segs[cut]
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: wal open %s: %w", s.path, err)
	}
	if cutOff < walSegHeaderLen {
		cutOff = walSegHeaderLen
	}
	if err := f.Truncate(cutOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: wal truncate %s: %w", s.path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: wal open sync: %w", err)
	}
	for _, prev := range segs[:cut] {
		w.segments = append(w.segments, walSegment{index: prev.index, firstLSN: prev.firstLSN, path: prev.path})
	}
	w.segments = append(w.segments, walSegment{index: s.index, firstLSN: s.firstLSN, path: s.path, f: f})
	w.f = f
	w.off = cutOff
	w.nextLSN = lastLSN + 1
	w.appended.Store(lastLSN)
	w.written.Store(lastLSN)
	w.durable.Store(lastLSN)
	return w, nil
}

type segmentInfo struct {
	index    uint64
	firstLSN uint64
	path     string
}

// listSegments enumerates the WAL directory's segment files in index
// order and reads their headers. Files that are not segments (or have
// torn headers) are ignored; a segment whose header is unreadable ends
// the list, like a torn record would.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("storage: wal list: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		idx, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentInfo{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	out := segs[:0]
	for _, s := range segs {
		var hdr [walSegHeaderLen]byte
		f, err := os.Open(s.path)
		if err != nil {
			break
		}
		_, rerr := f.ReadAt(hdr[:], 0)
		f.Close()
		if rerr != nil || binary.LittleEndian.Uint64(hdr[0:8]) != walMagic {
			break
		}
		s.firstLSN = binary.LittleEndian.Uint64(hdr[8:16])
		out = append(out, s)
	}
	return out, nil
}

// scanSegment decodes records from a raw segment image. It returns the
// decoded records, the offset just past the last valid record, and
// whether the segment ended in a torn/corrupt record (false means it
// ended exactly at EOF). An image shorter than the segment header holds
// nothing valid: validEnd is 0.
func scanSegment(data []byte, firstLSN uint64) (recs []WALRecord, validEnd int, torn bool) {
	if len(data) < walSegHeaderLen {
		return nil, 0, len(data) > 0
	}
	off := walSegHeaderLen
	expect := firstLSN
	for {
		if off+walRecOverhead > len(data) {
			return recs, off, off != len(data)
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if plen > walMaxPayload || off+walRecOverhead+plen > len(data) {
			return recs, off, true
		}
		body := data[off : off+walRecHeaderLen+plen]
		want := binary.LittleEndian.Uint32(data[off+walRecHeaderLen+plen : off+walRecOverhead+plen])
		if crc32.Checksum(body, fsCRCTable) != want {
			return recs, off, true
		}
		lsn := binary.LittleEndian.Uint64(body[4:12])
		if lsn != expect {
			return recs, off, true
		}
		recs = append(recs, WALRecord{LSN: lsn, Type: WALRecordType(body[12]), Payload: body[walRecHeaderLen : walRecHeaderLen+plen]})
		expect++
		off += walRecOverhead + plen
	}
}

// ScanWALDir reads every valid record in a WAL directory without
// modifying it. torn reports whether the log ended in a torn or
// corrupt record (the usual crash signature) rather than exactly at a
// record boundary. A missing directory yields no records and no error.
func ScanWALDir(dir string) (recs []WALRecord, torn bool, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, false, err
	}
	lastLSN := uint64(0)
	for i, s := range segs {
		if i == 0 {
			lastLSN = s.firstLSN - 1
		}
		if s.firstLSN != lastLSN+1 {
			return recs, true, nil
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return recs, true, nil
		}
		r, _, t := scanSegment(data, s.firstLSN)
		recs = append(recs, r...)
		if len(r) > 0 {
			lastLSN = r[len(r)-1].LSN
		}
		if t || len(data) < walSegHeaderLen {
			return recs, true, nil
		}
	}
	return recs, torn, nil
}

// WALRecordEnds returns the byte offset just past each complete record
// of one segment-file image (the 16-byte segment header included), in
// order. The crash drills use it to truncate a log at every record
// boundary; it does not verify checksums.
func WALRecordEnds(data []byte) []int64 {
	var ends []int64
	if len(data) < walSegHeaderLen {
		return ends
	}
	off := int64(walSegHeaderLen)
	for {
		if off+walRecOverhead > int64(len(data)) {
			return ends
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + walRecOverhead + n
		if n > walMaxPayload || end > int64(len(data)) {
			return ends
		}
		ends = append(ends, end)
		off = end
	}
}
