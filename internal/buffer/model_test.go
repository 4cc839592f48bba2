package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ccam/internal/storage"
)

// poolModel drives a Pool through Fetch, FetchNew, Unpin, Discard,
// Flush, FlushAll and Reset and checks it, after every step, against a
// map holding what each live page must read as. It is the one harness
// behind TestPoolModel, TestPoolModelConcurrentHits and FuzzPoolNoSteal.
//
// Pages are writable (the model dirties, frees and allocates them) or
// stable (written once before the pool opens and only ever read), so
// concurrent hit goroutines can read the stable ones without racing
// the model's writes — the exclusion the access-method lock gives the
// real pool's readers and writer.
//
// Every write and every free is a version batch of its own, as the
// access method's are, and snapshot readers pinned across steps
// (readers) each keep the images the model held when they pinned:
// every ReadAt at a reader's LSN must return its image, whatever the
// steps since have written, freed, evicted or reset.
type poolModel struct {
	p        *Pool
	st       storage.Store
	ref      map[storage.PageID][]byte // every live page's bytes
	ids      []storage.PageID          // every page ever allocated, freed ones too
	writable []storage.PageID
	stable   []storage.PageID
	held     []storage.PageID // pages the model holds one pin on
	hitters  bool             // concurrent goroutines pin stable pages
	readers  []modelReader
	// parked and grown record whether check ever saw a parked frame or
	// a shard above capacity, so a test can tell it reached both;
	// waited, whether a writer ever waited for a reader's borrow.
	parked, grown, waited bool
}

// modelReader is a snapshot pinned across steps, with the image of
// every page live when it pinned.
type modelReader struct {
	pin    SnapshotPin
	images map[storage.PageID][]byte
}

const (
	modelPageSize   = 64
	modelMaxHeld    = 3
	modelMaxReaders = 3
	modelOps        = 11
)

// spreadStore hands out page ids spread apart, two to a chunk of the
// pool's table, so the model's pages span many chunks and its
// allocations add chunks and grow the chunk list.
type spreadStore struct{ *storage.MemStore }

const spread = tableChunk / 2

func (s spreadStore) Allocate() (storage.PageID, error) {
	id, err := s.MemStore.Allocate()
	return id * spread, err
}
func (s spreadStore) ReadPage(id storage.PageID, buf []byte) error {
	return s.MemStore.ReadPage(id/spread, buf)
}
func (s spreadStore) WritePage(id storage.PageID, buf []byte) error {
	return s.MemStore.WritePage(id/spread, buf)
}
func (s spreadStore) WritePages(first storage.PageID, run []byte) error {
	return storage.WritePagesEach(s, first, run)
}
func (s spreadStore) Free(id storage.PageID) error { return s.MemStore.Free(id / spread) }

func newPoolModel(capacity, shards, writable, stable int, noSteal bool) *poolModel {
	m := &poolModel{st: spreadStore{storage.NewMemStore(modelPageSize)}, ref: make(map[storage.PageID][]byte)}
	for i := 0; i < writable+stable; i++ {
		id, err := m.st.Allocate()
		if err != nil {
			panic(err)
		}
		m.ids = append(m.ids, id)
		img := bytes.Repeat([]byte{byte(i + 1)}, modelPageSize)
		if err := m.st.WritePage(id, img); err != nil {
			panic(err)
		}
		m.ref[id] = img
		if i < writable {
			m.writable = append(m.writable, id)
		} else {
			m.stable = append(m.stable, id)
		}
	}
	m.p = NewPoolShards(m.st, capacity, shards)
	m.p.SetNoSteal(noSteal)
	return m
}

func (m *poolModel) isHeld(id storage.PageID) bool {
	for _, h := range m.held {
		if h == id {
			return true
		}
	}
	return false
}

func (m *poolModel) isStable(id storage.PageID) bool {
	for _, s := range m.stable {
		if s == id {
			return true
		}
	}
	return false
}

// unpin releases held page i; a dirty unpin of a writable page first
// changes one byte of it, frame and reference alike, in a version
// batch.
func (m *poolModel) unpin(i int, dirty bool, arg byte) error {
	id := m.held[i]
	m.held = append(m.held[:i], m.held[i+1:]...)
	if dirty && !m.isStable(id) {
		buf, err := m.frameBytes(id)
		if err != nil {
			return err
		}
		m.p.BeginVersionBatch()
		m.p.SaveVersion(id, buf)
		buf[int(arg)%modelPageSize] ^= arg | 1
		copy(m.ref[id], buf)
		defer m.p.PublishVersions(0)
	} else {
		dirty = false
	}
	return m.p.Unpin(id, dirty)
}

// pin pins a snapshot reader with a copy of every live page's image.
func (m *poolModel) pin() {
	r := modelReader{pin: m.p.AcquireSnapshot(), images: make(map[storage.PageID][]byte, len(m.ref))}
	for id, img := range m.ref {
		r.images[id] = bytes.Clone(img)
	}
	m.readers = append(m.readers, r)
}

// readAt reads page id at reader r's LSN and compares it with r's image.
func (m *poolModel) readAt(r modelReader, id storage.PageID) error {
	ref, err := m.p.ReadAt(id, r.pin.LSN, nil)
	if err != nil {
		return fmt.Errorf("reader@%d: read %d: %w", r.pin.LSN, id, err)
	}
	defer ref.Release()
	if !bytes.Equal(ref.Data, r.images[id]) {
		return fmt.Errorf("reader@%d: page %d reads %x, want %x", r.pin.LSN, id, ref.Data[:8], r.images[id][:8])
	}
	return nil
}

// pageOf picks one of reader r's pages by arg, in id order.
func (r modelReader) pageOf(arg byte) storage.PageID {
	ids := make([]storage.PageID, 0, len(r.images))
	for id := range r.images {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[int(arg)%len(ids)]
}

// writeUnderBorrow has reader r borrow writable page id while another
// goroutine runs a version batch that changes a byte of it. A borrow of
// the live frame must hold the writer inside SaveVersion, and its bytes
// must not change, until it is released; a borrow of a chain entry
// holds nothing.
func (m *poolModel) writeUnderBorrow(r modelReader, id storage.PageID, arg byte) error {
	ref, err := m.p.ReadAt(id, r.pin.LSN, nil)
	if err != nil {
		return fmt.Errorf("reader@%d: read %d: %w", r.pin.LSN, id, err)
	}
	framed := ref.f != nil
	saved := make(chan struct{})
	done := make(chan error, 1)
	k := int(arg) % modelPageSize
	go func() {
		m.p.BeginVersionBatch()
		buf, err := m.p.Fetch(id)
		if err != nil {
			m.p.AbortVersionBatch()
			done <- err
			close(saved)
			return
		}
		m.p.SaveVersion(id, buf)
		close(saved)
		buf[k] ^= arg | 1
		err = m.p.Unpin(id, true)
		m.p.PublishVersions(0)
		done <- err
	}()
	held := func() error {
		defer ref.Release()
		if !framed {
			return nil
		}
		// Once the pending entry is in, the writer is waiting for the
		// borrow; give it 50 µs to run past it. The polls spin: a timer
		// wait would round up to a millisecond or more.
		left := fmt.Errorf("writer left SaveVersion of page %d while reader@%d borrowed its frame", id, r.pin.LSN)
		for !m.pendingVersion(id) {
			select {
			case <-saved:
				return left
			default:
			}
		}
		for deadline := time.Now().Add(50 * time.Microsecond); time.Now().Before(deadline); {
			select {
			case <-saved:
				return left
			default:
			}
		}
		if !bytes.Equal(ref.Data, r.images[id]) {
			return fmt.Errorf("reader@%d: borrowed page %d changed to %x under the borrow", r.pin.LSN, id, ref.Data[:8])
		}
		m.waited = true
		return nil
	}()
	if err := <-done; err != nil {
		return fmt.Errorf("writer of page %d: %w", id, err)
	}
	if held != nil {
		return held
	}
	m.ref[id][k] ^= arg | 1
	return nil
}

// pendingVersion reports whether page id's chain has a pending entry.
func (m *poolModel) pendingVersion(id storage.PageID) bool {
	m.p.verMu.RLock()
	defer m.p.verMu.RUnlock()
	v := m.p.versions[id]
	return v != nil && v.supersededAt == pendingVersionLSN
}

// frameBytes returns the buffer of a page the model holds pinned.
func (m *poolModel) frameBytes(id storage.PageID) ([]byte, error) {
	sh := m.p.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fi, ok := sh.lookup(id)
	if !ok {
		return nil, fmt.Errorf("held page %d not in the table", id)
	}
	return sh.frames[fi].data, nil
}

func (m *poolModel) unpinAll() error {
	for len(m.held) > 0 {
		if err := m.unpin(0, false, 0); err != nil {
			return err
		}
	}
	return nil
}

// step applies operation op with argument arg, then checks the pool.
func (m *poolModel) step(op, arg byte) error {
	all := append(m.writable[:len(m.writable):len(m.writable)], m.stable...)
	switch op % modelOps {
	case 0: // Fetch
		id := all[int(arg)%len(all)]
		if m.isHeld(id) {
			break
		}
		buf, err := m.p.Fetch(id)
		if err != nil {
			return fmt.Errorf("fetch %d: %w", id, err)
		}
		if !bytes.Equal(buf, m.ref[id]) {
			return fmt.Errorf("fetch %d read %x, want %x", id, buf[:8], m.ref[id][:8])
		}
		if len(m.held) < modelMaxHeld {
			m.held = append(m.held, id)
		} else if err := m.p.Unpin(id, false); err != nil {
			return err
		}
	case 1, 2: // Unpin, dirty or clean
		if len(m.held) == 0 {
			break
		}
		if err := m.unpin(int(arg)%len(m.held), op%modelOps == 1, arg); err != nil {
			return err
		}
	case 3: // FetchNew
		if len(m.held) >= modelMaxHeld || len(m.writable) >= 64 {
			break
		}
		id, buf, err := m.p.FetchNew()
		if err != nil {
			return fmt.Errorf("fetch new: %w", err)
		}
		if !bytes.Equal(buf, make([]byte, modelPageSize)) {
			return fmt.Errorf("new page %d is not zeroed", id)
		}
		m.ref[id] = make([]byte, modelPageSize)
		m.ids = append(m.ids, id)
		m.writable = append(m.writable, id)
		m.held = append(m.held, id)
	case 4: // Discard, then free: the page is dropped unwritten, its
		// committed image saved for the readers pinned before the free
		if len(m.writable) <= 4 {
			break
		}
		i := int(arg) % len(m.writable)
		id := m.writable[i]
		if m.isHeld(id) {
			break
		}
		m.p.BeginVersionBatch()
		buf, err := m.p.Fetch(id)
		if err != nil {
			m.p.AbortVersionBatch()
			return fmt.Errorf("fetch %d to free it: %w", id, err)
		}
		m.p.SaveVersion(id, buf)
		if err := m.p.Unpin(id, false); err != nil {
			return err
		}
		m.p.Discard(id)
		if err := m.st.Free(id); err != nil {
			return err
		}
		m.p.PublishVersions(0)
		delete(m.ref, id)
		m.writable = append(m.writable[:i], m.writable[i+1:]...)
	case 5: // Flush
		id := all[int(arg)%len(all)]
		if err := m.p.Flush(id); err != nil {
			return err
		}
		if err := m.storeHolds(id); err != nil {
			return fmt.Errorf("after Flush: %w", err)
		}
	case 6: // FlushAll
		if err := m.p.FlushAll(); err != nil {
			return err
		}
		for id := range m.ref {
			if err := m.storeHolds(id); err != nil {
				return fmt.Errorf("after FlushAll: %w", err)
			}
		}
		if len(m.held) == 0 && !m.hitters {
			for si, sh := range m.p.shards {
				sh.mu.RLock()
				n := len(sh.frames)
				sh.mu.RUnlock()
				if n != sh.capacity {
					return fmt.Errorf("after FlushAll shard %d holds %d frames, capacity %d", si, n, sh.capacity)
				}
			}
		}
	case 7: // Reset needs an unpinned pool
		if m.hitters {
			break
		}
		if err := m.unpinAll(); err != nil {
			return err
		}
		if err := m.p.Reset(); err != nil {
			return err
		}
	case 8: // Pin a snapshot reader, or check every page of one and unpin it
		if len(m.readers) < modelMaxReaders && (arg%2 == 0 || len(m.readers) == 0) {
			m.pin()
			break
		}
		i := int(arg/2) % len(m.readers)
		r := m.readers[i]
		for id := range r.images {
			if err := m.readAt(r, id); err != nil {
				return err
			}
		}
		m.p.ReleaseSnapshot(r.pin)
		m.readers = append(m.readers[:i], m.readers[i+1:]...)
	case 9: // A pinned reader reads one of its pages
		if len(m.readers) == 0 {
			break
		}
		r := m.readers[int(arg)%len(m.readers)]
		if err := m.readAt(r, r.pageOf(arg/4)); err != nil {
			return err
		}
	case 10: // A pinned reader borrows a page a writer changes meanwhile
		// (not beside the hitters, which keep every CPU busy: the writer
		// goroutine would wait for one longer than the check does)
		if len(m.readers) == 0 || m.hitters {
			break
		}
		r := m.readers[int(arg)%len(m.readers)]
		id := r.pageOf(arg / 4)
		if _, live := m.ref[id]; !live || m.isStable(id) {
			break
		}
		if err := m.writeUnderBorrow(r, id, arg); err != nil {
			return err
		}
	}
	return m.check()
}

// storeHolds reports whether the store's image of id is its reference.
func (m *poolModel) storeHolds(id storage.PageID) error {
	buf := make([]byte, modelPageSize)
	if err := m.st.ReadPage(id, buf); err != nil {
		return err
	}
	if !bytes.Equal(buf, m.ref[id]) {
		return fmt.Errorf("store page %d holds %x, want %x", id, buf[:8], m.ref[id][:8])
	}
	return nil
}

// check holds the pool to the model: every table entry points at a
// frame of the page's shard holding that id, every frame holding a
// loaded page is that page's entry (no frame is orphaned), the ring
// boundary is in range, every parked frame is dirty, OverflowFrames
// counts the frames above capacity, and every live page reads as its
// reference — from its frame if resident, else from the store.
func (m *poolModel) check() error {
	resident := make(map[storage.PageID]bool)
	overflow := 0
	for si, sh := range m.p.shards {
		sh.mu.Lock()
		overflow += len(sh.frames) - sh.capacity
		err := func() error {
			if sh.live < 0 || sh.live > len(sh.frames) {
				return fmt.Errorf("shard %d: live %d outside [0, %d]", si, sh.live, len(sh.frames))
			}
			for fi, f := range sh.frames {
				if f.id == storage.InvalidPageID || f.loading != nil {
					continue
				}
				if m.p.shardOf(f.id) != sh {
					return fmt.Errorf("shard %d: frame %d holds page %d of another shard", si, fi, f.id)
				}
				if fj, ok := sh.lookup(f.id); !ok || fj != fi {
					return fmt.Errorf("shard %d: frame %d holds page %d, whose table entry is (%d, %v)", si, fi, f.id, fj, ok)
				}
			}
			// Only this shard's entries: the others may change meanwhile.
			for _, id := range m.ids {
				if m.p.shardOf(id) != sh {
					continue
				}
				fi, ok := sh.lookup(id)
				if !ok {
					continue
				}
				if fi >= len(sh.frames) || sh.frames[fi].id != id {
					return fmt.Errorf("shard %d: table maps page %d to frame %d, which holds another page", si, id, fi)
				}
				f := sh.frames[fi]
				if f.loading != nil {
					continue
				}
				want, ok := m.ref[id]
				if !ok {
					return fmt.Errorf("shard %d: freed page %d still published", si, id)
				}
				if !bytes.Equal(f.data, want) {
					return fmt.Errorf("shard %d: frame of page %d holds %x, want %x", si, id, f.data[:8], want[:8])
				}
				resident[id] = true
			}
			m.parked = m.parked || sh.live < len(sh.frames)
			m.grown = m.grown || len(sh.frames) > sh.capacity
			for fi := sh.live; fi < len(sh.frames); fi++ {
				if f := sh.frames[fi]; f.id == storage.InvalidPageID || !f.dirty.Load() {
					return fmt.Errorf("shard %d: parked frame %d (page %d) is not dirty", si, fi, f.id)
				}
			}
			return nil
		}()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if got := m.p.OverflowFrames(); !m.hitters && got != overflow {
		return fmt.Errorf("OverflowFrames() = %d, shards hold %d above capacity", got, overflow)
	}
	if !m.hitters {
		if got := m.p.ActiveSnapshots(); got != len(m.readers) {
			return fmt.Errorf("ActiveSnapshots() = %d, the model pins %d", got, len(m.readers))
		}
		if entries, _ := m.p.VersionStats(); len(m.readers) == 0 && entries != 0 {
			return fmt.Errorf("%d version entries retained with no reader pinned", entries)
		}
	}
	for id := range m.ref {
		if resident[id] {
			continue
		}
		if err := m.storeHolds(id); err != nil {
			return fmt.Errorf("non-resident %w", err)
		}
	}
	return nil
}

// run drives the model with a byte program: each pair is (op, arg).
// At the end every reader checks its pages and unpins.
func (m *poolModel) run(prog []byte) error {
	for i := 0; i+1 < len(prog); i += 2 {
		if err := m.step(prog[i], prog[i+1]); err != nil {
			return fmt.Errorf("step %d (op %d arg %d): %w", i/2, prog[i]%modelOps, prog[i+1], err)
		}
	}
	for len(m.readers) > 0 {
		if err := m.step(8, 1); err != nil {
			return fmt.Errorf("final unpin: %w", err)
		}
	}
	if err := m.unpinAll(); err != nil {
		return err
	}
	return m.step(6, 0) // a final FlushAll: the store holds the reference
}

// modelProgram is a seeded random op sequence. Flushes come rarely, so
// dirty frames pile up, get parked and force overflow frames between
// them.
func modelProgram(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	weights := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 10}
	prog := make([]byte, 2*steps)
	for i := 0; i < steps; i++ {
		prog[2*i] = byte(weights[rng.Intn(len(weights))])
		prog[2*i+1] = byte(rng.Intn(256))
	}
	return prog
}

// TestPoolModel runs seeded random programs under no-steal (where the
// sweep parks dirty frames and the pool grows) and under steal (where
// the sweep writes dirty victims back and nothing is parked).
func TestPoolModel(t *testing.T) {
	for _, noSteal := range []bool{true, false} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("noSteal=%v/shards=%d", noSteal, shards), func(t *testing.T) {
				parked, grown, waited := false, false, false
				for seed := int64(1); seed <= 20; seed++ {
					m := newPoolModel(8*shards, shards, 20, 4, noSteal)
					if err := m.run(modelProgram(seed, 600)); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					parked, grown = parked || m.parked, grown || m.grown
					waited = waited || m.waited
				}
				if parked != noSteal || grown != noSteal {
					t.Fatalf("parked %v, grown %v: want both %v", parked, grown, noSteal)
				}
				if !waited {
					t.Fatal("no writer ever waited for a reader's borrow")
				}
			})
		}
	}
}

// TestPoolModelConcurrentHits runs the model beside goroutines that
// borrow and release the stable pages — one by Fetch, one by ReadAt at
// a snapshot — so their hits, misses and evictions interleave with
// parking, unparking, frame growth and table growth: the model's
// FetchNew allocates page ids past the chunks the warm-up covered. Run
// it under -race.
func TestPoolModelConcurrentHits(t *testing.T) {
	for _, noSteal := range []bool{true, false} {
		t.Run(fmt.Sprintf("noSteal=%v", noSteal), func(t *testing.T) {
			m := newPoolModel(16, 2, 24, 8, noSteal)
			m.hitters = true
			// The model inserts into m.ref; the hitters read a copy.
			want := make(map[storage.PageID]byte, len(m.stable))
			for _, id := range m.stable {
				want[id] = m.ref[id][0]
			}
			// Warm the stable pages: the table then covers the ids the
			// store opened with, and only the model's allocations grow it.
			for _, id := range m.stable {
				if _, err := m.p.Fetch(id); err != nil {
					t.Fatal(err)
				}
				if err := m.p.Unpin(id, false); err != nil {
					t.Fatal(err)
				}
			}
			initial := len(m.p.table)
			pin := m.p.AcquireSnapshot()
			defer m.p.ReleaseSnapshot(pin)
			stop := make(chan struct{})
			errs := make(chan error, 2)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						id := m.stable[rng.Intn(len(m.stable))]
						var got byte
						var err error
						if g == 0 {
							var buf []byte
							if buf, err = m.p.Fetch(id); err == nil {
								got = buf[0]
								err = m.p.Unpin(id, false)
							}
						} else {
							var ref PageRef
							if ref, err = m.p.ReadAt(id, pin.LSN, nil); err == nil {
								got = ref.Data[0]
								ref.Release()
							}
						}
						if err == nil && got != want[id] {
							err = fmt.Errorf("hitter %d read page %d as %d, want %d", g, id, got, want[id])
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			err := m.run(modelProgram(7, 3000))
			close(stop)
			wg.Wait()
			close(errs)
			if err != nil {
				t.Fatal(err)
			}
			for err := range errs {
				t.Fatal(err)
			}
			if len(m.p.table) <= initial {
				t.Fatalf("table still %d chunks: the run never outgrew the initial table", len(m.p.table))
			}
		})
	}
}

// FuzzPoolNoSteal runs the model on fuzzed programs over a no-steal
// pool. The first two bytes pick the capacity and shard count.
func FuzzPoolNoSteal(f *testing.F) {
	f.Add([]byte{4, 1, 0, 1, 1, 7, 0, 2, 1, 9, 0, 3, 1, 11, 6, 0})
	f.Add(append([]byte{8, 2}, modelProgram(1, 200)...))
	f.Add(append([]byte{2, 1}, modelProgram(2, 200)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		shards := 1 + int(prog[1])%3
		capacity := shards + int(prog[0])%12
		m := newPoolModel(capacity, shards, 12, 4, true)
		if err := m.run(prog[2:]); err != nil {
			t.Fatal(err)
		}
	})
}
