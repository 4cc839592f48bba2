// Package btree implements a page-based B+-tree mapping uint64 keys to
// uint64 values, built on the same storage/buffer substrate as data
// files, so its page I/O can be metered from its pool's counters.
//
// No store code uses it. The paper's Z-order secondary index is memory
// resident, and netfile keeps it as a sorted key run (zorderIndex). The
// package's one user is the benchmark harness's probe stack
// (benchmark/probe.go), which prices a descent and a put on a tree of
// its own; the package goes when that stack does.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ccam/internal/buffer"
	"ccam/internal/storage"
)

// Errors returned by tree operations.
var (
	ErrKeyNotFound = errors.New("btree: key not found")
	ErrDuplicate   = errors.New("btree: duplicate key")
)

// Page layout.
//
// Common header (8 bytes):
//
//	[0]    node kind: 1 = leaf, 2 = internal
//	[1:3)  entry count
//	[4:8)  leaf: next-leaf page id; internal: leftmost child page id
//
// Leaf entries, 16 bytes each: key(8) value(8).
// Internal entries, 12 bytes each: key(8) child(4); entry i's child
// holds keys >= key(i) (and < key(i+1)).
const (
	hdrSize       = 8
	leafEntrySize = 16
	intEntrySize  = 12

	kindLeaf     = 1
	kindInternal = 2
)

// Tree is a B+-tree. Not safe for concurrent use.
type Tree struct {
	pool    *buffer.Pool
	root    storage.PageID
	height  int
	size    int
	leafCap int // max entries per leaf
	intCap  int // max entries per internal node
}

// New creates an empty tree with its own pages allocated from pool's
// store.
func New(pool *buffer.Pool) (*Tree, error) {
	ps := pool.Store().PageSize()
	t := &Tree{
		pool:    pool,
		leafCap: (ps - hdrSize) / leafEntrySize,
		intCap:  (ps - hdrSize) / intEntrySize,
	}
	if t.leafCap < 3 || t.intCap < 3 {
		return nil, fmt.Errorf("btree: page size %d too small", ps)
	}
	id, b, err := pool.FetchNew()
	if err != nil {
		return nil, fmt.Errorf("btree: allocate root: %w", err)
	}
	initNode(b, kindLeaf)
	setNext(b, storage.InvalidPageID)
	if err := pool.Unpin(id, true); err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	return t, nil
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root page id (for persistence headers).
func (t *Tree) Root() storage.PageID { return t.root }

// --- node field accessors over raw page bytes ---

func initNode(b []byte, kind byte) {
	for i := range b[:hdrSize] {
		b[i] = 0
	}
	b[0] = kind
}

func nodeKind(b []byte) byte { return b[0] }
func count(b []byte) int     { return int(binary.LittleEndian.Uint16(b[1:3])) }
func setCount(b []byte, n int) {
	binary.LittleEndian.PutUint16(b[1:3], uint16(n))
}
func next(b []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(b[4:8]))
}
func setNext(b []byte, id storage.PageID) {
	binary.LittleEndian.PutUint32(b[4:8], uint32(id))
}

// leaf accessors
func leafKey(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[hdrSize+i*leafEntrySize:])
}
func leafVal(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[hdrSize+i*leafEntrySize+8:])
}
func setLeafEntry(b []byte, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(b[hdrSize+i*leafEntrySize:], k)
	binary.LittleEndian.PutUint64(b[hdrSize+i*leafEntrySize+8:], v)
}
func setLeafVal(b []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(b[hdrSize+i*leafEntrySize+8:], v)
}

// internal accessors; child(-1) is the leftmost pointer in the header.
func intKey(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[hdrSize+i*intEntrySize:])
}
func intChild(b []byte, i int) storage.PageID {
	if i < 0 {
		return next(b)
	}
	return storage.PageID(binary.LittleEndian.Uint32(b[hdrSize+i*intEntrySize+8:]))
}
func setIntEntry(b []byte, i int, k uint64, c storage.PageID) {
	binary.LittleEndian.PutUint64(b[hdrSize+i*intEntrySize:], k)
	binary.LittleEndian.PutUint32(b[hdrSize+i*intEntrySize+8:], uint32(c))
}

func copyLeafEntries(dst []byte, di int, src []byte, si, n int) {
	copy(dst[hdrSize+di*leafEntrySize:hdrSize+(di+n)*leafEntrySize],
		src[hdrSize+si*leafEntrySize:hdrSize+(si+n)*leafEntrySize])
}

func copyIntEntries(dst []byte, di int, src []byte, si, n int) {
	copy(dst[hdrSize+di*intEntrySize:hdrSize+(di+n)*intEntrySize],
		src[hdrSize+si*intEntrySize:hdrSize+(si+n)*intEntrySize])
}

// leafSearch returns the smallest index with key >= k.
func leafSearch(b []byte, k uint64) int {
	lo, hi := 0, count(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(b, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intSearch returns the index of the child to descend into for key k:
// the largest entry index i with key(i) <= k, or -1 for the leftmost
// child.
func intSearch(b []byte, k uint64) int {
	lo, hi := 0, count(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(b, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Get returns the value for key k.
func (t *Tree) Get(k uint64) (uint64, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		b, err := t.pool.Fetch(id)
		if err != nil {
			return 0, err
		}
		child := intChild(b, intSearch(b, k))
		t.pool.Unpin(id, false)
		id = child
	}
	b, err := t.pool.Fetch(id)
	if err != nil {
		return 0, err
	}
	defer t.pool.Unpin(id, false)
	i := leafSearch(b, k)
	if i < count(b) && leafKey(b, i) == k {
		return leafVal(b, i), nil
	}
	return 0, fmt.Errorf("%w: %d", ErrKeyNotFound, k)
}

// Has reports whether key k is present.
func (t *Tree) Has(k uint64) bool {
	_, err := t.Get(k)
	return err == nil
}

// Put inserts key k with value v, replacing any existing value.
func (t *Tree) Put(k, v uint64) error {
	_, err := t.put(k, v, true)
	return err
}

// Insert inserts key k with value v; it fails with ErrDuplicate when
// the key is already present.
func (t *Tree) Insert(k, v uint64) error {
	replaced, err := t.put(k, v, false)
	if err != nil {
		return err
	}
	if replaced {
		return fmt.Errorf("%w: %d", ErrDuplicate, k)
	}
	return nil
}

// splitResult propagates a split to the parent: a new right sibling
// whose subtree holds keys >= key.
type splitResult struct {
	key   uint64
	right storage.PageID
}

func (t *Tree) put(k, v uint64, replace bool) (replaced bool, err error) {
	replaced, split, err := t.insertInto(t.root, t.height, k, v, replace)
	if err != nil {
		return false, err
	}
	if split != nil {
		// Grow a new root.
		id, b, err := t.pool.FetchNew()
		if err != nil {
			return false, fmt.Errorf("btree: grow root: %w", err)
		}
		initNode(b, kindInternal)
		setNext(b, t.root) // leftmost child
		setIntEntry(b, 0, split.key, split.right)
		setCount(b, 1)
		if err := t.pool.Unpin(id, true); err != nil {
			return false, err
		}
		t.root = id
		t.height++
	}
	if !replaced {
		t.size++
	}
	return replaced, nil
}

func (t *Tree) insertInto(id storage.PageID, level int, k, v uint64, replace bool) (replaced bool, split *splitResult, err error) {
	b, err := t.pool.Fetch(id)
	if err != nil {
		return false, nil, err
	}
	dirty := false
	defer func() {
		if uerr := t.pool.Unpin(id, dirty); uerr != nil && err == nil {
			err = uerr
		}
	}()

	if level == 1 { // leaf
		i := leafSearch(b, k)
		n := count(b)
		if i < n && leafKey(b, i) == k {
			if !replace {
				return true, nil, fmt.Errorf("%w: %d", ErrDuplicate, k)
			}
			setLeafVal(b, i, v)
			dirty = true
			return true, nil, nil
		}
		if n < t.leafCap {
			copyLeafEntries(b, i+1, b, i, n-i)
			setLeafEntry(b, i, k, v)
			setCount(b, n+1)
			dirty = true
			return false, nil, nil
		}
		// Split leaf.
		rid, rb, err2 := t.pool.FetchNew()
		if err2 != nil {
			return false, nil, fmt.Errorf("btree: split leaf: %w", err2)
		}
		initNode(rb, kindLeaf)
		mid := (n + 1) / 2
		copyLeafEntries(rb, 0, b, mid, n-mid)
		setCount(rb, n-mid)
		setCount(b, mid)
		setNext(rb, next(b))
		setNext(b, rid)
		if k >= leafKey(rb, 0) {
			j := leafSearch(rb, k)
			rn := count(rb)
			copyLeafEntries(rb, j+1, rb, j, rn-j)
			setLeafEntry(rb, j, k, v)
			setCount(rb, rn+1)
		} else {
			j := leafSearch(b, k)
			ln := count(b)
			copyLeafEntries(b, j+1, b, j, ln-j)
			setLeafEntry(b, j, k, v)
			setCount(b, ln+1)
		}
		sep := leafKey(rb, 0)
		if err2 := t.pool.Unpin(rid, true); err2 != nil {
			return false, nil, err2
		}
		dirty = true
		return false, &splitResult{key: sep, right: rid}, nil
	}

	// Internal node.
	ci := intSearch(b, k)
	child := intChild(b, ci)
	replaced, childSplit, err2 := t.insertInto(child, level-1, k, v, replace)
	if err2 != nil {
		return replaced, nil, err2
	}
	if childSplit == nil {
		return replaced, nil, nil
	}
	n := count(b)
	at := ci + 1 // new entry position
	if n < t.intCap {
		copyIntEntries(b, at+1, b, at, n-at)
		setIntEntry(b, at, childSplit.key, childSplit.right)
		setCount(b, n+1)
		dirty = true
		return replaced, nil, nil
	}
	// Split internal node. Assemble n+1 entries logically, push up the
	// median.
	rid, rb, err2 := t.pool.FetchNew()
	if err2 != nil {
		return replaced, nil, fmt.Errorf("btree: split internal: %w", err2)
	}
	initNode(rb, kindInternal)

	// Temporarily materialize the entry list.
	type entry struct {
		key   uint64
		child storage.PageID
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{intKey(b, i), intChild(b, i)})
	}
	entries = append(entries[:at], append([]entry{{childSplit.key, childSplit.right}}, entries[at:]...)...)

	mid := len(entries) / 2
	sep := entries[mid].key
	// Left keeps entries[:mid]; right takes entries[mid+1:], with
	// entries[mid].child as its leftmost pointer.
	setNext(rb, entries[mid].child)
	for i, e := range entries[mid+1:] {
		setIntEntry(rb, i, e.key, e.child)
	}
	setCount(rb, len(entries)-mid-1)
	for i, e := range entries[:mid] {
		setIntEntry(b, i, e.key, e.child)
	}
	setCount(b, mid)
	if err2 := t.pool.Unpin(rid, true); err2 != nil {
		return replaced, nil, err2
	}
	dirty = true
	return replaced, &splitResult{key: sep, right: rid}, nil
}

// Delete removes key k, rebalancing pages that underflow.
func (t *Tree) Delete(k uint64) error {
	found, _, err := t.deleteFrom(t.root, t.height, k)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %d", ErrKeyNotFound, k)
	}
	t.size--
	// Shrink root: an internal root with zero entries has one child.
	for t.height > 1 {
		b, err := t.pool.Fetch(t.root)
		if err != nil {
			return err
		}
		if count(b) > 0 {
			t.pool.Unpin(t.root, false)
			break
		}
		old := t.root
		t.root = intChild(b, -1)
		t.pool.Unpin(old, false)
		if err := t.pool.Free(old); err != nil {
			return fmt.Errorf("btree: free old root: %w", err)
		}
		t.height--
	}
	return nil
}

func (t *Tree) minEntries(level int) int {
	if level == 1 {
		return t.leafCap / 2
	}
	return t.intCap / 2
}

// deleteFrom removes k from the subtree rooted at id. underflow reports
// whether the node dropped below its minimum occupancy.
func (t *Tree) deleteFrom(id storage.PageID, level int, k uint64) (found, underflow bool, err error) {
	b, err := t.pool.Fetch(id)
	if err != nil {
		return false, false, err
	}
	dirty := false
	defer func() {
		if uerr := t.pool.Unpin(id, dirty); uerr != nil && err == nil {
			err = uerr
		}
	}()

	if level == 1 {
		i := leafSearch(b, k)
		n := count(b)
		if i >= n || leafKey(b, i) != k {
			return false, false, nil
		}
		copyLeafEntries(b, i, b, i+1, n-i-1)
		setCount(b, n-1)
		dirty = true
		return true, n-1 < t.minEntries(1) && id != t.root, nil
	}

	ci := intSearch(b, k)
	child := intChild(b, ci)
	found, childUnder, err2 := t.deleteFrom(child, level-1, k)
	if err2 != nil {
		return found, false, err2
	}
	if !found || !childUnder {
		return found, false, nil
	}
	// Rebalance child against a sibling.
	if err2 := t.rebalanceChild(b, ci, level); err2 != nil {
		return found, false, err2
	}
	dirty = true
	return true, count(b) < t.minEntries(level) && id != t.root, nil
}

// rebalanceChild restores minimum occupancy of the child at position ci
// of internal node b (level is b's level). It borrows from or merges
// with an adjacent sibling.
func (t *Tree) rebalanceChild(b []byte, ci, level int) error {
	n := count(b)
	childLevel := level - 1
	// Prefer the left sibling; the leftmost child uses its right one.
	li, ri := ci-1, ci
	if ci == -1 {
		li, ri = -1, 0
	}
	if ri >= n {
		// b has a single child and no siblings; can only happen at a
		// root with count 0, handled by the caller's root shrink.
		return nil
	}
	leftID, rightID := intChild(b, li), intChild(b, ri)
	lb, err := t.pool.Fetch(leftID)
	if err != nil {
		return err
	}
	rb, err := t.pool.Fetch(rightID)
	if err != nil {
		t.pool.Unpin(leftID, false)
		return err
	}
	ln, rn := count(lb), count(rb)
	min := t.minEntries(childLevel)
	sepIdx := ri // separator key index in b between left and right

	if childLevel == 1 {
		switch {
		case ln+rn <= t.leafCap:
			// Merge right into left.
			copyLeafEntries(lb, ln, rb, 0, rn)
			setCount(lb, ln+rn)
			setNext(lb, next(rb))
			t.pool.Unpin(leftID, true)
			t.pool.Unpin(rightID, false)
			if err := t.pool.Free(rightID); err != nil {
				return fmt.Errorf("btree: free merged leaf: %w", err)
			}
			removeIntEntry(b, sepIdx)
			return nil
		case ln < min:
			// Borrow first entry of right.
			setLeafEntry(lb, ln, leafKey(rb, 0), leafVal(rb, 0))
			setCount(lb, ln+1)
			copyLeafEntries(rb, 0, rb, 1, rn-1)
			setCount(rb, rn-1)
			setIntKey(b, sepIdx, leafKey(rb, 0))
		default:
			// Borrow last entry of left.
			copyLeafEntries(rb, 1, rb, 0, rn)
			setLeafEntry(rb, 0, leafKey(lb, ln-1), leafVal(lb, ln-1))
			setCount(rb, rn+1)
			setCount(lb, ln-1)
			setIntKey(b, sepIdx, leafKey(rb, 0))
		}
	} else {
		sep := intKey(b, sepIdx)
		switch {
		case ln+rn+1 <= t.intCap:
			// Merge: left + sep(pointing at right's leftmost) + right.
			setIntEntry(lb, ln, sep, intChild(rb, -1))
			copyIntEntries(lb, ln+1, rb, 0, rn)
			setCount(lb, ln+1+rn)
			t.pool.Unpin(leftID, true)
			t.pool.Unpin(rightID, false)
			if err := t.pool.Free(rightID); err != nil {
				return fmt.Errorf("btree: free merged internal: %w", err)
			}
			removeIntEntry(b, sepIdx)
			return nil
		case ln < min:
			// Rotate left: sep moves down to left, right's first key up.
			setIntEntry(lb, ln, sep, intChild(rb, -1))
			setCount(lb, ln+1)
			setIntKey(b, sepIdx, intKey(rb, 0))
			setNext(rb, intChild(rb, 0))
			copyIntEntries(rb, 0, rb, 1, rn-1)
			setCount(rb, rn-1)
		default:
			// Rotate right: left's last key up, sep moves down to right.
			copyIntEntries(rb, 1, rb, 0, rn)
			setIntEntry(rb, 0, sep, intChild(rb, -1))
			setCount(rb, rn+1)
			setNext(rb, intChild(lb, ln-1))
			setIntKey(b, sepIdx, intKey(lb, ln-1))
			setCount(lb, ln-1)
		}
	}
	t.pool.Unpin(leftID, true)
	t.pool.Unpin(rightID, true)
	return nil
}

func setIntKey(b []byte, i int, k uint64) {
	binary.LittleEndian.PutUint64(b[hdrSize+i*intEntrySize:], k)
}

// removeIntEntry deletes entry i from internal node b.
func removeIntEntry(b []byte, i int) {
	n := count(b)
	copyIntEntries(b, i, b, i+1, n-i-1)
	setCount(b, n-1)
}

// Iter is a forward scanner over the tree's leaves.
type Iter struct {
	t    *Tree
	page storage.PageID
	idx  int
	key  uint64
	val  uint64
	err  error
	done bool
}

// Seek returns an iterator positioned at the smallest key >= k.
func (t *Tree) Seek(k uint64) *Iter {
	it := &Iter{t: t}
	id := t.root
	for level := t.height; level > 1; level-- {
		b, err := t.pool.Fetch(id)
		if err != nil {
			it.err = err
			it.done = true
			return it
		}
		child := intChild(b, intSearch(b, k))
		t.pool.Unpin(id, false)
		id = child
	}
	b, err := t.pool.Fetch(id)
	if err != nil {
		it.err = err
		it.done = true
		return it
	}
	it.page = id
	it.idx = leafSearch(b, k) - 1 // Next advances first
	t.pool.Unpin(id, false)
	return it
}

// Min returns an iterator at the smallest key.
func (t *Tree) Min() *Iter { return t.Seek(0) }

// Next advances the iterator; it returns false at the end or on error.
func (it *Iter) Next() bool {
	if it.done {
		return false
	}
	for {
		b, err := it.t.pool.Fetch(it.page)
		if err != nil {
			it.err = err
			it.done = true
			return false
		}
		it.idx++
		if it.idx < count(b) {
			it.key = leafKey(b, it.idx)
			it.val = leafVal(b, it.idx)
			it.t.pool.Unpin(it.page, false)
			return true
		}
		nx := next(b)
		it.t.pool.Unpin(it.page, false)
		if nx == storage.InvalidPageID {
			it.done = true
			return false
		}
		it.page = nx
		it.idx = -1
	}
}

// Key returns the current key; valid after Next reports true.
func (it *Iter) Key() uint64 { return it.key }

// Value returns the current value; valid after Next reports true.
func (it *Iter) Value() uint64 { return it.val }

// Err returns the first error the iterator encountered.
func (it *Iter) Err() error { return it.err }

// SeekIter re-positions a fresh scan at key k; convenience for Z-order
// range scans that jump with BIGMIN.
func (t *Tree) SeekIter(k uint64) *Iter { return t.Seek(k) }

// Validate checks structural invariants (ordering, occupancy, leaf
// chain, separator correctness). Intended for tests.
func (t *Tree) Validate() error {
	n, _, _, err := t.validate(t.root, t.height, 0, ^uint64(0), true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("btree: size %d but %d keys reachable", t.size, n)
	}
	return nil
}

func (t *Tree) validate(id storage.PageID, level int, lo, hi uint64, isRoot bool) (n int, minKey, maxKey uint64, err error) {
	b, err := t.pool.Fetch(id)
	if err != nil {
		return 0, 0, 0, err
	}
	defer t.pool.Unpin(id, false)
	c := count(b)
	if level == 1 {
		if nodeKind(b) != kindLeaf {
			return 0, 0, 0, fmt.Errorf("btree: page %d: expected leaf", id)
		}
		if !isRoot && c < t.minEntries(1) {
			return 0, 0, 0, fmt.Errorf("btree: leaf %d underflow: %d", id, c)
		}
		var prev uint64
		for i := 0; i < c; i++ {
			k := leafKey(b, i)
			if i > 0 && k <= prev {
				return 0, 0, 0, fmt.Errorf("btree: leaf %d keys out of order", id)
			}
			if k < lo || k > hi {
				return 0, 0, 0, fmt.Errorf("btree: leaf %d key %d outside [%d,%d]", id, k, lo, hi)
			}
			prev = k
		}
		if c == 0 {
			return 0, 0, 0, nil
		}
		return c, leafKey(b, 0), leafKey(b, c-1), nil
	}
	if nodeKind(b) != kindInternal {
		return 0, 0, 0, fmt.Errorf("btree: page %d: expected internal", id)
	}
	if !isRoot && c < t.minEntries(level) {
		return 0, 0, 0, fmt.Errorf("btree: internal %d underflow: %d", id, c)
	}
	total := 0
	childLo := lo
	for i := -1; i < c; i++ {
		childHi := hi
		if i+1 < c {
			childHi = intKey(b, i+1) - 1
		}
		if i >= 0 {
			childLo = intKey(b, i)
		}
		cn, _, _, err := t.validate(intChild(b, i), level-1, childLo, childHi, false)
		if err != nil {
			return 0, 0, 0, err
		}
		total += cn
	}
	return total, lo, hi, nil
}
