package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultOp selects which store operation a fault rule applies to.
type FaultOp uint8

// Fault operations.
const (
	// FaultAnyOp matches every operation.
	FaultAnyOp FaultOp = iota
	// FaultRead matches ReadPage.
	FaultRead
	// FaultWrite matches WritePage, and each page of WritePages.
	FaultWrite
	// FaultAllocate matches Allocate.
	FaultAllocate
	// FaultFree matches Free.
	FaultFree
)

func (op FaultOp) String() string {
	switch op {
	case FaultAnyOp:
		return "any"
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultAllocate:
		return "allocate"
	case FaultFree:
		return "free"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// FaultMode selects what a triggered fault does.
type FaultMode uint8

// Fault modes.
const (
	// FaultError fails the operation with Fault.Err (default
	// ErrFaultInjected) without touching the device.
	FaultError FaultMode = iota
	// FaultTornWrite simulates a crash mid-write: a random-length
	// prefix of the new image is spliced over the old page contents,
	// written through, and the operation reports Fault.Err — exactly
	// what a power cut during a sector-spanning write leaves behind.
	// Only meaningful on writes.
	FaultTornWrite
	// FaultBitFlip silently corrupts the transfer: one random bit of
	// the page image is inverted (in the written image on writes, in
	// the returned buffer on reads) and the operation reports success.
	FaultBitFlip
)

// AnyPage makes a Fault match every page.
const AnyPage = InvalidPageID

// Fault is one injection rule. The zero value of Page targets page 0;
// use AnyPage to match all pages.
type Fault struct {
	// Op restricts the rule to one operation (FaultAnyOp: all).
	Op FaultOp
	// Page restricts the rule to one page (AnyPage: all).
	Page PageID
	// After skips this many matching operations before the rule
	// starts firing.
	After int
	// Count limits how many times the rule fires (0 = unlimited).
	Count int
	// Mode selects the failure behaviour.
	Mode FaultMode
	// Err is the error reported by FaultError and FaultTornWrite
	// (default ErrFaultInjected). It is always wrapped so
	// errors.Is(err, ErrFaultInjected) also matches the default.
	Err error

	seen  int // matching ops observed (to honor After)
	fired int // times this rule has triggered
}

// FaultStore wraps a Store with deterministic fault injection: rules
// added with Inject fire on matching operations, producing clean
// errors, torn writes or silent bit flips. All randomness (torn-write
// cut points, flipped bit positions) comes from one seeded
// *rand.Rand, so a failing sequence replays exactly. It is the
// failure-path test harness for every layer above the stores.
type FaultStore struct {
	inner Store
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Fault
	// injected counts triggered faults.
	injected atomic.Int64
}

// NewFaultStore wraps inner with a fault injector seeded with seed.
func NewFaultStore(inner Store, seed int64) *FaultStore {
	return &FaultStore{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Inject adds a rule. Rules are evaluated in insertion order and the
// first match fires. Returns the store for chaining.
func (f *FaultStore) Inject(fl Fault) *FaultStore {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := fl
	f.rules = append(f.rules, &cp)
	return f
}

// FailAfter injects a rule failing every matching operation (on any
// page) after the first n succeed — the classic dying-device harness.
func (f *FaultStore) FailAfter(op FaultOp, n int) *FaultStore {
	return f.Inject(Fault{Op: op, Page: AnyPage, After: n})
}

// Clear removes every rule.
func (f *FaultStore) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected returns the number of faults triggered so far.
func (f *FaultStore) Injected() int64 { return f.injected.Load() }

// Inner returns the wrapped store.
func (f *FaultStore) Inner() Store { return f.inner }

// trigger finds the first matching armed rule for (op, id) and, if one
// fires, returns it. The rng stays guarded by the same mutex, so
// sequences are deterministic.
func (f *FaultStore) trigger(op FaultOp, id PageID) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != FaultAnyOp && r.Op != op {
			continue
		}
		if r.Page != AnyPage && r.Page != id {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		r.fired++
		f.injected.Add(1)
		return r
	}
	return nil
}

// err wraps the rule's error (or the default) with operation context,
// keeping both the custom error and ErrFaultInjected matchable.
func (r *Fault) err(op FaultOp, id PageID) error {
	if r.Err != nil {
		return fmt.Errorf("storage: fault on %s page %d: %w (%w)", op, id, r.Err, ErrFaultInjected)
	}
	return fmt.Errorf("fault on %s page %d: %w", op, id, ErrFaultInjected)
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.inner.PageSize() }

// Allocate implements Store.
func (f *FaultStore) Allocate() (PageID, error) {
	if r := f.trigger(FaultAllocate, AnyPage); r != nil {
		return InvalidPageID, r.err(FaultAllocate, AnyPage)
	}
	return f.inner.Allocate()
}

// ReadPage implements Store.
func (f *FaultStore) ReadPage(id PageID, buf []byte) error {
	r := f.trigger(FaultRead, id)
	if r == nil {
		return f.inner.ReadPage(id, buf)
	}
	if r.Mode == FaultBitFlip {
		if err := f.inner.ReadPage(id, buf); err != nil {
			return err
		}
		f.flipBit(buf)
		return nil
	}
	return r.err(FaultRead, id)
}

// WritePage implements Store.
func (f *FaultStore) WritePage(id PageID, buf []byte) error {
	r := f.trigger(FaultWrite, id)
	if r == nil {
		return f.inner.WritePage(id, buf)
	}
	return f.faultyWrite(r, id, buf)
}

// WritePages implements Store. Every page of the run is matched
// against the rules as one write, in order, so After and Count count
// pages. A rule that fires cuts the run at its page: the pages before
// it reach the inner store as one run, and the page itself fails as
// WritePage's would — a FaultError tears the run at the page boundary,
// a FaultTornWrite inside the page. A bit flip corrupts its page and
// the rest of the run is written.
func (f *FaultStore) WritePages(first PageID, run []byte) error {
	ps := f.inner.PageSize()
	n, err := runPages(run, ps)
	if err != nil {
		return err
	}
	start := 0
	for i := range n {
		id := first + PageID(i)
		r := f.trigger(FaultWrite, id)
		if r == nil {
			continue
		}
		if i > start {
			if err := f.inner.WritePages(first+PageID(start), run[start*ps:i*ps]); err != nil {
				return err
			}
		}
		if err := f.faultyWrite(r, id, run[i*ps:][:ps]); err != nil {
			return err
		}
		start = i + 1
	}
	if start == n {
		return nil
	}
	return f.inner.WritePages(first+PageID(start), run[start*ps:])
}

// faultyWrite carries out rule r's failure on a write of page id.
func (f *FaultStore) faultyWrite(r *Fault, id PageID, buf []byte) error {
	switch r.Mode {
	case FaultTornWrite:
		old := make([]byte, f.inner.PageSize())
		if err := f.inner.ReadPage(id, old); err != nil {
			return r.err(FaultWrite, id)
		}
		torn := make([]byte, len(buf))
		copy(torn, buf)
		f.mu.Lock()
		cut := 1 + f.rng.Intn(len(buf)-1) // at least one byte old and new
		f.mu.Unlock()
		copy(torn[cut:], old[cut:])
		// Best effort, as a crashing kernel would be; the caller sees
		// the failure either way.
		_ = f.inner.WritePage(id, torn)
		return r.err(FaultWrite, id)
	case FaultBitFlip:
		flipped := make([]byte, len(buf))
		copy(flipped, buf)
		f.flipBit(flipped)
		return f.inner.WritePage(id, flipped)
	default:
		return r.err(FaultWrite, id)
	}
}

// Free implements Store.
func (f *FaultStore) Free(id PageID) error {
	if r := f.trigger(FaultFree, id); r != nil {
		return r.err(FaultFree, id)
	}
	return f.inner.Free(id)
}

// flipBit inverts one rng-chosen bit of b.
func (f *FaultStore) flipBit(b []byte) {
	if len(b) == 0 {
		return
	}
	f.mu.Lock()
	bit := f.rng.Intn(len(b) * 8)
	f.mu.Unlock()
	b[bit/8] ^= 1 << (bit % 8)
}

// NumPages implements Store.
func (f *FaultStore) NumPages() int { return f.inner.NumPages() }

// PageIDs implements Store.
func (f *FaultStore) PageIDs() []PageID { return f.inner.PageIDs() }

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }

var _ Store = (*FaultStore)(nil)
