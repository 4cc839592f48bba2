package buffer

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSnapshotPinStress pins and unpins snapshots from many goroutines
// while a publisher commits a version of one page after another. Some
// goroutines hold two pins at once and release them out of order, and
// one now and then holds more pins than there are reader slots, so the
// overflow list is used too. Every pinned read must see its LSN's
// image. At the end nothing may be pinned, the floor must be the
// committed LSN and the version store must have drained: a release
// that cleared any slot but its own pin's — another reader's pin, or a
// claim that reader is about to retry — leaves a slot pinned forever,
// and the floor stuck below it keeps every later version.
func TestSnapshotPinStress(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]
	// Image k (committed at LSN k) is all byte(k % 251).
	base, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	clear(base)
	p.Unpin(id, true)

	// A claim a reader is retrying, planted by hand: the retry window is
	// nanoseconds wide, so the goroutines below rarely hit it. A reader
	// holds slot 1 at the committed LSN; another has just claimed slot 0
	// at the same LSN and, seeing a commit land, is about to clear it.
	held := p.AcquireSnapshot()
	if held.slot != 0 {
		t.Fatalf("first pin took slot %d, want 0", held.slot)
	}
	mine := p.AcquireSnapshot()
	p.ReleaseSnapshot(held)
	p.readers[0].lsn.Store(mine.LSN + 1) // the retrying reader's claim
	p.ReleaseSnapshot(mine)
	p.readers[0].lsn.Store(0) // the retrying reader clears its own claim
	if n := p.ActiveSnapshots(); n != 0 {
		t.Fatalf("ActiveSnapshots = %d after every pin and claim went, want 0: a release cleared another reader's slot", n)
	}

	iters := 3000
	if testing.Short() {
		iters = 500
	}
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lsn := p.CommittedLSN() + 1
			p.BeginVersionBatch()
			data, err := p.Fetch(id)
			if err != nil {
				t.Error(err)
				return
			}
			p.SaveVersion(id, data)
			for i := range data {
				data[i] = byte(lsn % 251)
			}
			p.Unpin(id, true)
			p.PublishVersions(lsn)
		}
	}()

	check := func(pin SnapshotPin) bool {
		ref, err := p.ReadAt(id, pin.LSN, nil)
		if err != nil {
			t.Error(err)
			return false
		}
		defer ref.Release()
		want := byte(pin.LSN % 251)
		for _, b := range ref.Data {
			if b != want {
				t.Errorf("reader@%d read %#x, want %#x", pin.LSN, b, want)
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var pins []SnapshotPin
			for i := 0; i < iters; i++ {
				n := 1
				switch {
				case g%2 == 1:
					n = 2
				case g == 0 && i%500 == 0:
					n = snapshotSlots + 8
				}
				for j := 0; j < n; j++ {
					pins = append(pins, p.AcquireSnapshot())
				}
				if !check(pins[rng.Intn(len(pins))]) {
					for _, pin := range pins {
						p.ReleaseSnapshot(pin)
					}
					return
				}
				rng.Shuffle(len(pins), func(a, b int) { pins[a], pins[b] = pins[b], pins[a] })
				for _, pin := range pins {
					p.ReleaseSnapshot(pin)
				}
				pins = pins[:0]
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-published

	if n := p.ActiveSnapshots(); n != 0 {
		t.Errorf("ActiveSnapshots = %d with every pin released, want 0", n)
	}
	if f, c := p.VersionFloor(), p.CommittedLSN(); f != c {
		t.Errorf("VersionFloor = %d, CommittedLSN = %d: a released pin still holds the floor", f, c)
	}
	if c := p.CommittedLSN(); c < 10 {
		t.Errorf("only %d commits landed beside the readers", c)
	}
	if entries, b := p.VersionStats(); entries != 0 || b != 0 {
		t.Errorf("version store holds %d entries (%d bytes) with nothing pinned, want 0", entries, b)
	}
}

// BenchmarkSnapshotPin times one AcquireSnapshot and ReleaseSnapshot
// pair with no version retained: the bracket every query pays.
func BenchmarkSnapshotPin(b *testing.B) {
	p := NewPool(nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReleaseSnapshot(p.AcquireSnapshot())
	}
}
