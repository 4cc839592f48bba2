package netfile

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ccam/internal/geom"
	"ccam/internal/graph"
)

// spatialEntry is one point record of the secondary spatial index:
// a node position and its id.
type spatialEntry struct {
	pos geom.Point
	id  graph.NodeID
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

// zBlockCap is the most keys a zorderIndex block holds. A put that
// overfills a block splits it in half.
const zBlockCap = 256

// zorderIndex is the paper's secondary spatial index (§2.1): the Z-order
// of each node's position, ordered for range scans and kept memory
// resident as the paper assumes. It is the sorted run of keys, cut into
// blocks of at most zBlockCap so that a put or remove moves at most one
// block's keys. Every block is non-empty, and the blocks concatenated
// are sorted. A position in the run is (block, index). The paper admits
// an R-tree or a Grid File in its place; the Grid File is a baseline in
// internal/bench, and an R-tree read within one page per 256 windows of
// it and no faster (EXPERIMENTS.md, "One spatial index").
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

// put adds the entry for (p, id); putting a present entry is a no-op.
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

// remove drops the entry for (p, id), or fails with ErrNotFound.
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

// checkShape fails unless every block holds 1..zBlockCap keys and the
// run ascends strictly; it returns how many keys it holds.
func (z *zorderIndex) checkShape() (n int, err error) {
	var prev uint64
	for b, blk := range z.blocks {
		if len(blk) == 0 || len(blk) > zBlockCap {
			return n, fmt.Errorf("%w: Z-order block %d holds %d keys", ErrInconsistent, b, len(blk))
		}
		for _, k := range blk {
			if n > 0 && k <= prev {
				return n, fmt.Errorf("%w: Z-order block %d: key %#x after %#x", ErrInconsistent, b, k, prev)
			}
			prev, n = k, n+1
		}
	}
	return n, nil
}

// search visits the ids of the entries whose cell lies inside rect's
// cells, in key order; fn returning false stops it. It scans the keys
// from the window's lowest Z value to its highest. A key whose cell
// lies outside the window is a gap: the scan jumps to the key at
// BIGMIN, the next Z value inside it. A jump searches forward in the
// current block when its last key is at or past the target and calls
// locate only otherwise. On netmix-sized windows of the 65k-node
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
