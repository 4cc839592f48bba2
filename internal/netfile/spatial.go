package netfile

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ccam/internal/btree"
	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/rtree"
	"ccam/internal/storage"
)

// SpatialKind selects the secondary spatial index structure. The paper
// uses a B+-tree over the Z-order of each node's coordinates and notes
// that "other access methods such as R-tree and Grid File etc. can
// alternatively be created on top of the data file as secondary
// indices".
type SpatialKind int

// Spatial index kinds.
const (
	// SpatialZOrder is a B+-tree keyed by the Z-order (Morton code) of
	// the node position, scanned with BIGMIN jumps — the paper's
	// default.
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
	put(p geom.Point, id graph.NodeID) error
	remove(p geom.Point, id graph.NodeID) error
	// search visits ids of entries inside rect; fn returning false
	// stops early.
	search(rect geom.Rect, fn func(id graph.NodeID) bool) error
	// bulkLoad populates an empty index with all entries at once;
	// structures without a bulk path fall back to per-entry put.
	bulkLoad(entries []spatialEntry) error
}

// spatialEntry is one point record for bulkLoad.
type spatialEntry struct {
	pos geom.Point
	id  graph.NodeID
}

func newSpatialIndex(kind SpatialKind, quant geom.Quantizer) (spatialIndex, error) {
	switch kind {
	case SpatialZOrder:
		st := storage.NewMemStore(4096)
		pool := buffer.NewPool(st, 4096)
		tree, err := btree.New(pool)
		if err != nil {
			return nil, fmt.Errorf("netfile: create z-order index: %w", err)
		}
		return &zorderIndex{tree: tree, quant: quant}, nil
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
// candidates for rect, exactly as RangeQuery would, but without
// fetching any record — the probe touches only the memory-resident
// index, so it costs no data-page I/O. Candidates can be false
// positives (the Z-order index matches at quantized-cell granularity);
// RangeQuery filters them after the record fetch, which is why a
// window query's data-page cost is the page count of the candidates,
// not of the true matches. fn returning false stops the probe early.
func (f *File) SpatialCandidates(rect geom.Rect, fn func(id graph.NodeID) bool) error {
	f.spatMu.RLock()
	defer f.spatMu.RUnlock()
	return f.spatial.search(rect, fn)
}

// --- Z-order implementation (the paper's secondary index) ---

type zorderIndex struct {
	tree  *btree.Tree
	quant geom.Quantizer
}

// key builds the index key: a 32-bit Z-order value in the high half (so
// keys sort by Z) with the node id as tiebreak in the low half.
func (z *zorderIndex) key(p geom.Point, id graph.NodeID) uint64 {
	ix, iy := z.quant.Grid(p)
	z32 := geom.Interleave(ix>>15, iy>>15) // 16 bits per axis
	return z32<<32 | uint64(id)
}

func (z *zorderIndex) put(p geom.Point, id graph.NodeID) error {
	return z.tree.Put(z.key(p, id), uint64(id))
}

func (z *zorderIndex) remove(p geom.Point, id graph.NodeID) error {
	err := z.tree.Delete(z.key(p, id))
	if errors.Is(err, btree.ErrKeyNotFound) {
		return fmt.Errorf("%w: spatial entry for %d", ErrNotFound, id)
	}
	return err
}

// bulkLoad builds the Z-order B+-tree bottom-up from the sorted key
// run. Keys are unique even for co-located points because the node id
// occupies the low 32 bits.
func (z *zorderIndex) bulkLoad(entries []spatialEntry) error {
	bes := make([]btree.Entry, len(entries))
	for i, e := range entries {
		bes[i] = btree.Entry{Key: z.key(e.pos, e.id), Val: uint64(e.id)}
	}
	sort.Slice(bes, func(i, j int) bool { return bes[i].Key < bes[j].Key })
	return z.tree.BulkLoad(bes)
}

func (z *zorderIndex) search(rect geom.Rect, fn func(graph.NodeID) bool) error {
	loX, loY := z.quant.Grid(rect.Min)
	hiX, hiY := z.quant.Grid(rect.Max)
	lo32 := geom.Interleave(loX>>15, loY>>15)
	hi32 := geom.Interleave(hiX>>15, hiY>>15)
	it := z.tree.Seek(lo32 << 32)
	for it.Next() {
		key := it.Key()
		if key > hi32<<32|0xffffffff {
			break
		}
		z32 := key >> 32
		if !geom.InZRect(z32, lo32, hi32) {
			nz, ok := geom.BigMin(z32, lo32, hi32)
			if !ok {
				break
			}
			it = z.tree.Seek(nz << 32)
			continue
		}
		if !fn(graph.NodeID(key & 0xffffffff)) {
			return it.Err()
		}
	}
	return it.Err()
}

// --- R-tree implementation ---

type rtreeIndex struct {
	tree *rtree.Tree
}

func (r *rtreeIndex) put(p geom.Point, id graph.NodeID) error {
	// Upsert semantics: drop a stale entry for the same (point, id) so
	// reorganization's re-puts stay idempotent.
	_ = r.tree.Delete(p, uint64(id))
	r.tree.Insert(p, uint64(id))
	return nil
}

func (r *rtreeIndex) remove(p geom.Point, id graph.NodeID) error {
	if err := r.tree.Delete(p, uint64(id)); err != nil {
		return fmt.Errorf("%w: spatial entry for %d", ErrNotFound, id)
	}
	return nil
}

// bulkLoad has no bottom-up path for the R-tree; it falls back to
// per-entry inserts.
func (r *rtreeIndex) bulkLoad(entries []spatialEntry) error {
	for _, e := range entries {
		if err := r.put(e.pos, e.id); err != nil {
			return err
		}
	}
	return nil
}

func (r *rtreeIndex) search(rect geom.Rect, fn func(graph.NodeID) bool) error {
	r.tree.Search(rect, func(_ geom.Point, ref uint64) bool {
		return fn(graph.NodeID(ref))
	})
	return nil
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
