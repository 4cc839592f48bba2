package netfile

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/rtree"
)

// SpatialKind selects the secondary spatial index structure. The paper
// uses a B+-tree over the Z-order of each node's coordinates, assumed
// memory resident, and notes that "other access methods such as R-tree
// and Grid File etc. can alternatively be created on top of the data
// file as secondary indices".
type SpatialKind int

// Spatial index kinds.
const (
	// SpatialZOrder is a memory-resident sorted run of keys ordered by
	// the Z-order (Morton code) of the node position, scanned with
	// BIGMIN jumps — the paper's default.
	SpatialZOrder SpatialKind = iota
	// SpatialRTree is Guttman's R-tree with quadratic splits.
	SpatialRTree
)

// String implements fmt.Stringer.
func (k SpatialKind) String() string {
	switch k {
	case SpatialZOrder:
		return "zorder"
	case SpatialRTree:
		return "rtree"
	default:
		return fmt.Sprintf("spatial(%d)", int(k))
	}
}

// spatialIndex abstracts the memory-resident secondary spatial index:
// point entries (node position → node id) with range and k-nearest
// search. The data page of a result is resolved through the node
// index.
type spatialIndex interface {
	// put adds an entry; putting a present entry is a no-op.
	put(p geom.Point, id graph.NodeID)
	// remove drops an entry, or fails with ErrNotFound.
	remove(p geom.Point, id graph.NodeID) error
	// search visits ids of entries inside rect; fn returning false
	// stops early.
	search(rect geom.Rect, fn func(id graph.NodeID) bool)
	// bulkLoad populates an empty index with all entries at once;
	// structures without a bulk path fall back to per-entry put.
	bulkLoad(entries []spatialEntry)
}

// spatialEntry is one point record for bulkLoad.
type spatialEntry struct {
	pos geom.Point
	id  graph.NodeID
}

func newSpatialIndex(kind SpatialKind, quant geom.Quantizer) (spatialIndex, error) {
	switch kind {
	case SpatialZOrder:
		return &zorderIndex{quant: quant}, nil
	case SpatialRTree:
		return &rtreeIndex{tree: rtree.New(16)}, nil
	default:
		return nil, fmt.Errorf("netfile: unknown spatial index kind %d", kind)
	}
}

// SpatialIndexKind reports which secondary spatial index structure the
// file carries (SpatialZOrder or SpatialRTree). The query planner uses
// it to name the window access path it is costing.
func (f *File) SpatialIndexKind() SpatialKind {
	if _, ok := f.spatial.(*rtreeIndex); ok {
		return SpatialRTree
	}
	return SpatialZOrder
}

// SpatialCandidates visits the node ids the spatial index yields as
// candidates for rect, exactly as RangeQuery would and in the same
// order, but without fetching any record: the probe reads only the
// memory-resident index, so it costs no data-page I/O and allocates
// nothing. Candidates can be false positives (the Z-order index matches
// at quantized-cell granularity); RangeQuery filters them after the
// record fetch, which is why a window query's data-page cost is the
// page count of the candidates, not of the true matches. fn returning
// false stops the probe early. The error is always nil (plan.Source
// asks for one).
func (f *File) SpatialCandidates(rect geom.Rect, fn func(id graph.NodeID) bool) error {
	f.spatMu.RLock()
	defer f.spatMu.RUnlock()
	f.spatial.search(rect, fn)
	return nil
}

// appendCandidates appends to dst the ids the spatial index yields as
// candidates for rect, in the index's order. It calls search on the
// index's concrete type: a visitor passed through the interface escapes,
// and would take dst's backing array — a caller's stack buffer — to the
// heap with it. newSpatialIndex makes no other kind.
func appendCandidates(ix spatialIndex, rect geom.Rect, dst []graph.NodeID) []graph.NodeID {
	add := func(id graph.NodeID) bool {
		dst = append(dst, id)
		return true
	}
	switch ix := ix.(type) {
	case *zorderIndex:
		ix.search(rect, add)
	case *rtreeIndex:
		ix.search(rect, add)
	}
	return dst
}

// --- Z-order implementation (the paper's secondary index) ---

// zBlockCap is the most keys a zorderIndex block holds. A put that
// overfills a block splits it in half.
const zBlockCap = 256

// zorderIndex is the paper's Z-ordered secondary index, kept memory
// resident as the paper assumes: the sorted run of keys, cut into
// blocks of at most zBlockCap so that a put or remove moves at most one
// block's keys. Every block is non-empty, and the blocks concatenated
// are sorted. A position in the run is (block, index).
type zorderIndex struct {
	blocks [][]uint64
	quant  geom.Quantizer
}

// key builds the index key: a 32-bit Z-order value in the high half (so
// keys sort by Z) with the node id as tiebreak in the low half.
func (z *zorderIndex) key(p geom.Point, id graph.NodeID) uint64 {
	ix, iy := z.quant.Grid(p)
	z32 := geom.Interleave(ix>>15, iy>>15) // 16 bits per axis
	return z32<<32 | uint64(id)
}

// locate returns the position of the first key >= k: a binary search
// over the blocks' last keys, then one inside the block. The block is
// len(z.blocks) when every key is below k.
func (z *zorderIndex) locate(k uint64) (b, i int) {
	b = sort.Search(len(z.blocks), func(j int) bool {
		blk := z.blocks[j]
		return blk[len(blk)-1] >= k
	})
	if b < len(z.blocks) {
		i, _ = slices.BinarySearch(z.blocks[b], k)
	}
	return b, i
}

func (z *zorderIndex) put(p geom.Point, id graph.NodeID) {
	k := z.key(p, id)
	b, i := z.locate(k)
	switch {
	case len(z.blocks) == 0:
		z.blocks = [][]uint64{{k}}
		return
	case b == len(z.blocks):
		b--
		i = len(z.blocks[b])
	case z.blocks[b][i] == k:
		return
	}
	blk := slices.Insert(z.blocks[b], i, k)
	if len(blk) > zBlockCap {
		half := len(blk) / 2
		z.blocks = slices.Insert(z.blocks, b+1, slices.Clone(blk[half:]))
		blk = blk[:half]
	}
	z.blocks[b] = blk
}

func (z *zorderIndex) remove(p geom.Point, id graph.NodeID) error {
	k := z.key(p, id)
	b, i := z.locate(k)
	if b == len(z.blocks) || z.blocks[b][i] != k {
		return fmt.Errorf("%w: spatial entry for %d", ErrNotFound, id)
	}
	if blk := slices.Delete(z.blocks[b], i, i+1); len(blk) > 0 {
		z.blocks[b] = blk
	} else {
		z.blocks = slices.Delete(z.blocks, b, b+1)
	}
	return nil
}

// bulkLoad sorts the keys once and carves the run into full blocks.
// Keys are unique even for co-located points because the node id
// occupies the low 32 bits. Each block is a three-index slice of the
// run, capped at its own end, so an insert reallocates it rather than
// writing into its neighbour.
func (z *zorderIndex) bulkLoad(entries []spatialEntry) {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = z.key(e.pos, e.id)
	}
	slices.Sort(keys)
	z.blocks = make([][]uint64, 0, (len(keys)+zBlockCap-1)/zBlockCap)
	for lo := 0; lo < len(keys); lo += zBlockCap {
		hi := min(lo+zBlockCap, len(keys))
		z.blocks = append(z.blocks, keys[lo:hi:hi])
	}
}

// search scans the keys from the window's lowest Z value to its highest.
// A key whose cell lies outside the window is a gap: the scan jumps to
// the key at BIGMIN, the next Z value inside it. A jump searches forward
// in the current block when its last key is at or past the target and
// calls locate only otherwise. On netmix-sized windows of the 65k-node
// map, 96 % of the ~23 jumps per window stay in the block, and the
// shortcut takes the probe from 4.4 to 2.9 µs (BenchmarkSpatialCandidates,
// 2-CPU Intel Xeon).
func (z *zorderIndex) search(rect geom.Rect, fn func(graph.NodeID) bool) {
	loX, loY := z.quant.Grid(rect.Min)
	hiX, hiY := z.quant.Grid(rect.Max)
	lo32 := geom.Interleave(loX>>15, loY>>15)
	hi32 := geom.Interleave(hiX>>15, hiY>>15)
	end := hi32<<32 | 0xffffffff
	b, i := z.locate(lo32 << 32)
	for b < len(z.blocks) {
		blk := z.blocks[b]
		if i == len(blk) {
			b, i = b+1, 0
			continue
		}
		key := blk[i]
		if key > end {
			return
		}
		z32 := key >> 32
		if !geom.InZRect(z32, lo32, hi32) {
			nz, ok := geom.BigMin(z32, lo32, hi32)
			if !ok {
				return
			}
			if next := nz << 32; blk[len(blk)-1] >= next {
				j, _ := slices.BinarySearch(blk[i+1:], next)
				i += 1 + j
			} else {
				b, i = z.locate(next)
			}
			continue
		}
		if !fn(graph.NodeID(key & 0xffffffff)) {
			return
		}
		i++
	}
}

// --- R-tree implementation ---

type rtreeIndex struct {
	tree *rtree.Tree
}

func (r *rtreeIndex) put(p geom.Point, id graph.NodeID) {
	// Upsert semantics: drop a stale entry for the same (point, id) so
	// reorganization's re-puts stay idempotent.
	_ = r.tree.Delete(p, uint64(id))
	r.tree.Insert(p, uint64(id))
}

func (r *rtreeIndex) remove(p geom.Point, id graph.NodeID) error {
	if err := r.tree.Delete(p, uint64(id)); err != nil {
		return fmt.Errorf("%w: spatial entry for %d", ErrNotFound, id)
	}
	return nil
}

// bulkLoad has no bottom-up path for the R-tree; it falls back to
// per-entry inserts.
func (r *rtreeIndex) bulkLoad(entries []spatialEntry) {
	for _, e := range entries {
		r.put(e.pos, e.id)
	}
}

func (r *rtreeIndex) search(rect geom.Rect, fn func(graph.NodeID) bool) {
	r.tree.Search(rect, func(_ geom.Point, ref uint64) bool {
		return fn(graph.NodeID(ref))
	})
}

// sortByDistance orders records by true Euclidean distance from p.
func sortByDistance(recs []*Record, p geom.Point) {
	sort.Slice(recs, func(i, j int) bool {
		di := math.Hypot(recs[i].Pos.X-p.X, recs[i].Pos.Y-p.Y)
		dj := math.Hypot(recs[j].Pos.X-p.X, recs[j].Pos.Y-p.Y)
		if di != dj {
			return di < dj
		}
		return recs[i].ID < recs[j].ID
	})
}
