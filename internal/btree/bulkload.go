package btree

import (
	"errors"
	"fmt"

	"ccam/internal/storage"
)

// ErrNotEmpty is returned by BulkLoad on a tree that already has keys.
var ErrNotEmpty = errors.New("btree: bulk load requires an empty tree")

// Entry is one key/value pair for BulkLoad.
type Entry struct {
	Key uint64
	Val uint64
}

// BulkLoad builds the tree bottom-up from a strictly-ascending run of
// entries: leaves are packed full in one sequential pass, then each
// internal level is derived from the (minimum key, child) pairs of the
// level below — no per-key root-to-leaf descent, no splits. The last
// two nodes of every level are rebalanced when the tail would underflow
// Validate's minimum-occupancy invariant, so a bulk-loaded tree is
// structurally indistinguishable from (and searches identically to) an
// insert-built one. The tree must be empty; entries must be strictly
// ascending (equal keys are rejected with ErrDuplicate). On error
// mid-build the tree keeps its previous (empty) shape, though already
// allocated pages are not reclaimed.
func (t *Tree) BulkLoad(entries []Entry) error {
	if t.size != 0 || t.height != 1 {
		return ErrNotEmpty
	}
	if len(entries) == 0 {
		return nil
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key == entries[i-1].Key {
			return fmt.Errorf("%w: %d", ErrDuplicate, entries[i].Key)
		}
		if entries[i].Key < entries[i-1].Key {
			return fmt.Errorf("btree: bulk load entries not sorted at %d", i)
		}
	}

	// Level 0: pack leaves and chain them left to right.
	counts := packCounts(len(entries), t.leafCap, t.minEntries(1))
	keys := make([]uint64, 0, len(counts))
	children := make([]storage.PageID, 0, len(counts))
	pos := 0
	prev := storage.InvalidPageID
	for _, n := range counts {
		id, b, err := t.pool.FetchNew()
		if err != nil {
			return fmt.Errorf("btree: bulk leaf: %w", err)
		}
		initNode(b, kindLeaf)
		for i := 0; i < n; i++ {
			setLeafEntry(b, i, entries[pos+i].Key, entries[pos+i].Val)
		}
		setCount(b, n)
		setNext(b, storage.InvalidPageID)
		if err := t.pool.Unpin(id, true); err != nil {
			return err
		}
		if prev != storage.InvalidPageID {
			pb, err := t.pool.Fetch(prev)
			if err != nil {
				return fmt.Errorf("btree: chain leaves: %w", err)
			}
			setNext(pb, id)
			if err := t.pool.Unpin(prev, true); err != nil {
				return err
			}
		}
		keys = append(keys, entries[pos].Key)
		children = append(children, id)
		pos += n
		prev = id
	}

	// Internal levels: group (minKey, child) pairs until one node is
	// left. A node with c children stores c-1 separator keys, so the
	// fanout is intCap+1 and the occupancy floor is minEntries+1
	// children.
	height := 1
	for len(children) > 1 {
		counts = packCounts(len(children), t.intCap+1, t.minEntries(2)+1)
		upKeys := make([]uint64, 0, len(counts))
		upChildren := make([]storage.PageID, 0, len(counts))
		pos = 0
		for _, n := range counts {
			id, b, err := t.pool.FetchNew()
			if err != nil {
				return fmt.Errorf("btree: bulk internal: %w", err)
			}
			initNode(b, kindInternal)
			setNext(b, children[pos]) // leftmost child
			for i := 1; i < n; i++ {
				setIntEntry(b, i-1, keys[pos+i], children[pos+i])
			}
			setCount(b, n-1)
			if err := t.pool.Unpin(id, true); err != nil {
				return err
			}
			upKeys = append(upKeys, keys[pos])
			upChildren = append(upChildren, id)
			pos += n
		}
		keys, children = upKeys, upChildren
		height++
	}

	// Retire the empty seed root and install the built tree.
	old := t.root
	if err := t.pool.Free(old); err != nil {
		return fmt.Errorf("btree: free seed root: %w", err)
	}
	t.root = children[0]
	t.height = height
	t.size = len(entries)
	return nil
}

// packCounts splits n items into runs of at most capacity, each of at
// least minN (given n >= minN or a single run), by filling runs left to
// right and rebalancing the last two when the tail falls short.
// Requires capacity >= 2*minN - 1 so a rebalanced pair is always
// feasible.
func packCounts(n, capacity, minN int) []int {
	if n <= capacity {
		return []int{n}
	}
	full := n / capacity
	rem := n - full*capacity
	counts := make([]int, 0, full+1)
	for i := 0; i < full; i++ {
		counts = append(counts, capacity)
	}
	if rem > 0 {
		counts = append(counts, rem)
		if rem < minN {
			// Steal from the previous full node; capacity + rem >= 2*minN.
			total := capacity + rem
			counts[len(counts)-2] = total - total/2
			counts[len(counts)-1] = total / 2
		}
	}
	return counts
}
