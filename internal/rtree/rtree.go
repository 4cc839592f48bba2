// Package rtree implements Guttman's R-tree with quadratic splitting —
// the alternative secondary index the paper names for CCAM ("Other
// access methods such as R-tree [11] and Grid File [21], etc. can
// alternatively be created on top of the data file as secondary
// indices"). The tree indexes points (degenerate rectangles) carrying a
// uint64 reference; like the Z-order index it stands in for, it is
// memory resident.
package rtree

import (
	"errors"
	"fmt"
	"math"

	"ccam/internal/geom"
)

// ErrNotFound reports a delete of an absent entry.
var ErrNotFound = errors.New("rtree: entry not found")

// entry is either a leaf entry (ref) or a branch entry (child).
type entry struct {
	mbr   geom.Rect
	child *node
	ref   uint64
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree over point data. Not safe for concurrent use.
type Tree struct {
	root *node
	max  int // max entries per node
	min  int // min entries per node (after underflow handling)
	size int
}

// New returns an empty tree with the given node capacity (defaults to
// 16 when maxEntries < 4).
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = 16
	}
	return &Tree{
		root: &node{leaf: true},
		max:  maxEntries,
		min:  maxEntries * 2 / 5, // Guttman suggests m ≈ 40% of M
	}
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

func pointRect(p geom.Point) geom.Rect { return geom.Rect{Min: p, Max: p} }

func union(a, b geom.Rect) geom.Rect {
	if a.Min.X > b.Min.X {
		a.Min.X = b.Min.X
	}
	if a.Min.Y > b.Min.Y {
		a.Min.Y = b.Min.Y
	}
	if a.Max.X < b.Max.X {
		a.Max.X = b.Max.X
	}
	if a.Max.Y < b.Max.Y {
		a.Max.Y = b.Max.Y
	}
	return a
}

func area(r geom.Rect) float64 { return r.Width() * r.Height() }

// enlargement returns how much r must grow to cover x.
func enlargement(r, x geom.Rect) float64 { return area(union(r, x)) - area(r) }

// Insert adds a point entry.
func (t *Tree) Insert(p geom.Point, ref uint64) {
	r := pointRect(p)
	leaf := t.chooseLeaf(t.root, r, nil)
	leaf.node.entries = append(leaf.node.entries, entry{mbr: r, ref: ref})
	t.size++
	t.adjustUpward(leaf)
}

// path records the descent for upward adjustment.
type pathElem struct {
	node   *node
	parent *pathElem
	// index of this node's entry within the parent
	parentIdx int
}

// chooseLeaf descends to the leaf needing least enlargement.
func (t *Tree) chooseLeaf(n *node, r geom.Rect, parent *pathElem) *pathElem {
	return t.descend(&pathElem{node: n, parent: parent}, r)
}

// descend continues chooseLeaf from an element of the path.
func (t *Tree) descend(pe *pathElem, r geom.Rect) *pathElem {
	n := pe.node
	if n.leaf {
		return pe
	}
	best, bestIdx := math.Inf(1), 0
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		enl := enlargement(e.mbr, r)
		a := area(e.mbr)
		if enl < best || (enl == best && a < bestArea) {
			best, bestIdx, bestArea = enl, i, a
		}
	}
	child := &pathElem{node: n.entries[bestIdx].child, parent: pe, parentIdx: bestIdx}
	return t.descend(child, r)
}

// adjustUpward recomputes MBRs along the path and splits overflowing
// nodes.
func (t *Tree) adjustUpward(pe *pathElem) {
	for pe != nil {
		n := pe.node
		if len(n.entries) > t.max {
			left, right := t.splitNode(n)
			if pe.parent == nil {
				// Grow a new root.
				t.root = &node{
					leaf: false,
					entries: []entry{
						{mbr: mbrOf(left), child: left},
						{mbr: mbrOf(right), child: right},
					},
				}
			} else {
				parent := pe.parent.node
				parent.entries[pe.parentIdx] = entry{mbr: mbrOf(left), child: left}
				parent.entries = append(parent.entries, entry{mbr: mbrOf(right), child: right})
			}
		} else if pe.parent != nil {
			pe.parent.node.entries[pe.parentIdx].mbr = mbrOf(n)
		}
		pe = pe.parent
	}
}

func mbrOf(n *node) geom.Rect {
	r := n.entries[0].mbr
	for _, e := range n.entries[1:] {
		r = union(r, e.mbr)
	}
	return r
}

// splitNode performs Guttman's quadratic split, reusing n as the left
// node and returning both halves.
func (t *Tree) splitNode(n *node) (*node, *node) {
	entries := n.entries
	// Pick seeds: the pair wasting the most area together.
	worst := -math.Inf(1)
	s1, s2 := 0, 1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := area(union(entries[i].mbr, entries[j].mbr)) - area(entries[i].mbr) - area(entries[j].mbr)
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left := &node{leaf: n.leaf, entries: []entry{entries[s1]}}
	right := &node{leaf: n.leaf, entries: []entry{entries[s2]}}
	lm, rm := entries[s1].mbr, entries[s2].mbr

	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one side must take all remaining
		// entries to reach the minimum.
		if len(left.entries)+len(rest) == t.min {
			left.entries = append(left.entries, rest...)
			for _, e := range rest {
				lm = union(lm, e.mbr)
			}
			break
		}
		if len(right.entries)+len(rest) == t.min {
			right.entries = append(right.entries, rest...)
			for _, e := range rest {
				rm = union(rm, e.mbr)
			}
			break
		}
		// Pick the entry with the strongest preference.
		bestIdx, bestDiff := 0, -math.Inf(1)
		for i, e := range rest {
			d1 := enlargement(lm, e.mbr)
			d2 := enlargement(rm, e.mbr)
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, bestIdx = diff, i
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1 := enlargement(lm, e.mbr)
		d2 := enlargement(rm, e.mbr)
		switch {
		case d1 < d2 || (d1 == d2 && len(left.entries) <= len(right.entries)):
			left.entries = append(left.entries, e)
			lm = union(lm, e.mbr)
		default:
			right.entries = append(right.entries, e)
			rm = union(rm, e.mbr)
		}
	}
	*n = *left
	return n, right
}

// Search visits every entry whose point lies inside rect; fn returning
// false stops the search.
func (t *Tree) Search(rect geom.Rect, fn func(p geom.Point, ref uint64) bool) {
	t.search(t.root, rect, fn)
}

func (t *Tree) search(n *node, rect geom.Rect, fn func(geom.Point, uint64) bool) bool {
	for _, e := range n.entries {
		if !rect.Intersects(e.mbr) {
			continue
		}
		if n.leaf {
			if !fn(e.mbr.Min, e.ref) {
				return false
			}
		} else if !t.search(e.child, rect, fn) {
			return false
		}
	}
	return true
}

// Delete removes the entry at point p with the given ref.
func (t *Tree) Delete(p geom.Point, ref uint64) error {
	leaf, idx := t.findLeaf(t.root, p, ref, nil)
	if leaf == nil {
		return fmt.Errorf("%w: %v ref %d", ErrNotFound, p, ref)
	}
	n := leaf.node
	n.entries = append(n.entries[:idx], n.entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	// Shrink the root when it has a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
	}
	return nil
}

func (t *Tree) findLeaf(n *node, p geom.Point, ref uint64, parent *pathElem) (*pathElem, int) {
	return t.findLeafFrom(&pathElem{node: n, parent: parent}, p, ref)
}

func (t *Tree) findLeafFrom(pe *pathElem, p geom.Point, ref uint64) (*pathElem, int) {
	n := pe.node
	if n.leaf {
		for i, e := range n.entries {
			if e.ref == ref && e.mbr.Min == p {
				return pe, i
			}
		}
		return nil, 0
	}
	for i, e := range n.entries {
		if !e.mbr.Contains(p) {
			continue
		}
		child := &pathElem{node: e.child, parent: pe, parentIdx: i}
		if found, idx := t.findLeafFrom(child, p, ref); found != nil {
			return found, idx
		}
	}
	return nil, 0
}

// condense handles underflow after a delete: underfull nodes are
// removed from their parents and their surviving entries reinserted.
func (t *Tree) condense(pe *pathElem) {
	var orphans []entry
	for pe.parent != nil {
		n := pe.node
		parent := pe.parent.node
		if len(n.entries) < t.min {
			// Remove this node from its parent and queue its entries.
			orphans = append(orphans, collectLeafEntries(n)...)
			parent.entries = append(parent.entries[:pe.parentIdx], parent.entries[pe.parentIdx+1:]...)
			// Parent indexes of siblings after pe shift; recompute on
			// the fly by re-finding during reinsert (safe because we
			// only walk up from here).
			fixChildIndexes(pe.parent)
		} else if len(n.entries) > 0 {
			parent.entries[pe.parentIdx].mbr = mbrOf(n)
		}
		pe = pe.parent
	}
	for _, e := range orphans {
		t.size--
		t.Insert(e.mbr.Min, e.ref)
	}
}

// fixChildIndexes is a no-op placeholder: parent indexes are recomputed
// lazily because condense walks strictly upward and reinsert starts
// from the root.
func fixChildIndexes(*pathElem) {}

func collectLeafEntries(n *node) []entry {
	if n.leaf {
		return append([]entry(nil), n.entries...)
	}
	var out []entry
	for _, e := range n.entries {
		out = append(out, collectLeafEntries(e.child)...)
	}
	return out
}

// Validate checks structural invariants: MBR containment, occupancy
// bounds and entry count. Intended for tests.
func (t *Tree) Validate() error {
	n, err := t.validate(t.root, nil, true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, n)
	}
	return nil
}

func (t *Tree) validate(n *node, within *geom.Rect, isRoot bool) (int, error) {
	if !isRoot && (len(n.entries) < t.min || len(n.entries) > t.max) {
		return 0, fmt.Errorf("rtree: node occupancy %d outside [%d,%d]", len(n.entries), t.min, t.max)
	}
	if len(n.entries) > t.max {
		return 0, fmt.Errorf("rtree: root overflow: %d", len(n.entries))
	}
	total := 0
	for _, e := range n.entries {
		if within != nil {
			if !within.Intersects(e.mbr) || union(*within, e.mbr) != *within {
				return 0, fmt.Errorf("rtree: entry MBR %v escapes parent %v", e.mbr, *within)
			}
		}
		if n.leaf {
			total++
			continue
		}
		if e.child == nil {
			return 0, fmt.Errorf("rtree: nil child in internal node")
		}
		if got := mbrOf(e.child); got != e.mbr {
			return 0, fmt.Errorf("rtree: stale MBR: stored %v, actual %v", e.mbr, got)
		}
		mbr := e.mbr
		c, err := t.validate(e.child, &mbr, false)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
