// Package netfile provides the machinery every access method in this
// repository shares: the binary node-record codec (node data plus
// successor- and predecessor-lists, as in the paper's adjacency-list
// representation), the data file built from slotted pages with a
// memory-resident node index and a clock-sweep buffer pool, and the
// paper's search operations Find, Get-A-successor, Get-successors and
// route evaluation. Access methods (CCAM, DFS-AM, BFS-AM, WDFS-AM, Grid
// File) differ only in how they place records on pages and how they
// maintain the placement under updates.
package netfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// Errors returned by record and file operations.
var (
	ErrCorruptRecord = errors.New("netfile: corrupt record")
	ErrNotFound      = errors.New("netfile: node not found")
	ErrDuplicate     = errors.New("netfile: node already exists")
	ErrNotSuccessor  = errors.New("netfile: node is not a successor")
	// ErrPageLimit refuses a data page whose id a record id cannot name
	// (about 64 GiB of data pages at any page size).
	ErrPageLimit = errors.New("netfile: page id past the node index's record-id range")
	// ErrIndexMismatch is File.Check's finding that the node index and
	// the data pages disagree.
	ErrIndexMismatch = errors.New("netfile: node index disagrees with the data pages")
	// ErrInconsistent is File.Check's finding that the free-space map,
	// the Z-order index, the successor- and predecessor-lists or the PAG
	// summary disagree with the data pages.
	ErrInconsistent = errors.New("netfile: file state disagrees with the data pages")
)

// SuccEntry is one successor-list element: the edge's end node and its
// cost (e.g. current travel time).
type SuccEntry struct {
	To   graph.NodeID
	Cost float32
}

// Record is the stored form of a network node: node data (id,
// coordinates, attribute payload), the successor-list and the
// predecessor-list. Records have no fixed format — list lengths vary
// across nodes.
type Record struct {
	ID    graph.NodeID
	Pos   geom.Point
	Attrs []byte
	Succs []SuccEntry
	Preds []graph.NodeID
}

// Record wire format (little endian):
//
//	[0:4)   id
//	[4:12)  x float64
//	[12:20) y float64
//	[20:22) attr length a
//	[22:24) successor count s
//	[24:26) predecessor count p
//	[26:26+a)        attrs
//	... s × (to uint32, cost float32)
//	... p × (from uint32)
const recordHeaderSize = 26

// EncodedSize returns the number of bytes EncodeRecord will produce.
func (r *Record) EncodedSize() int {
	return encodedSize(len(r.Attrs), len(r.Succs), len(r.Preds))
}

// encodedSize is the image size of a record with attrs attribute bytes,
// succs successors and preds predecessors.
func encodedSize(attrs, succs, preds int) int {
	return recordHeaderSize + attrs + 8*succs + 4*preds
}

// EncodeRecord serializes r.
func EncodeRecord(r *Record) []byte {
	return AppendRecord(make([]byte, 0, r.EncodedSize()), r)
}

// AppendRecord appends r's serialized image to dst.
func AppendRecord(dst []byte, r *Record) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(r.ID))
	dst = le.AppendUint64(dst, math.Float64bits(r.Pos.X))
	dst = le.AppendUint64(dst, math.Float64bits(r.Pos.Y))
	dst = le.AppendUint16(dst, uint16(len(r.Attrs)))
	dst = le.AppendUint16(dst, uint16(len(r.Succs)))
	dst = le.AppendUint16(dst, uint16(len(r.Preds)))
	dst = append(dst, r.Attrs...)
	for _, s := range r.Succs {
		dst = le.AppendUint32(dst, uint32(s.To))
		dst = le.AppendUint32(dst, math.Float32bits(s.Cost))
	}
	for _, p := range r.Preds {
		dst = le.AppendUint32(dst, uint32(p))
	}
	return dst
}

// DecodeRecord parses a record image. The returned record owns its
// memory (no aliasing of buf).
func DecodeRecord(buf []byte) (*Record, error) {
	v, err := viewRecord(buf)
	if err != nil {
		return nil, err
	}
	return v.record(), nil
}

// recordView reads a record image in place: the read path's answer to
// "decode, then look at one field". viewRecord checks once that the
// header's list lengths account for exactly the bytes of the image;
// after that every accessor stays inside buf by construction. A view
// aliases buf — a page borrowed from the buffer pool — and dies with
// the borrow; record() is the way out.
type recordView struct {
	buf   []byte
	succs int // offset of the successor-list
	preds int // offset of the predecessor-list
}

func viewRecord(buf []byte) (recordView, error) {
	if len(buf) < recordHeaderSize {
		return recordView{}, fmt.Errorf("%w: %d bytes", ErrCorruptRecord, len(buf))
	}
	a := int(binary.LittleEndian.Uint16(buf[20:22]))
	s := int(binary.LittleEndian.Uint16(buf[22:24]))
	p := int(binary.LittleEndian.Uint16(buf[24:26]))
	v := recordView{buf: buf, succs: recordHeaderSize + a}
	v.preds = v.succs + 8*s
	if want := v.preds + 4*p; len(buf) != want {
		return recordView{}, fmt.Errorf("%w: have %d bytes, header implies %d", ErrCorruptRecord, len(buf), want)
	}
	return v, nil
}

func (v recordView) id() graph.NodeID {
	return graph.NodeID(binary.LittleEndian.Uint32(v.buf[0:4]))
}

func (v recordView) pos() geom.Point {
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(v.buf[4:12])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(v.buf[12:20])),
	}
}

func (v recordView) numSuccs() int { return (v.preds - v.succs) / 8 }
func (v recordView) numPreds() int { return (len(v.buf) - v.preds) / 4 }

func (v recordView) succ(i int) SuccEntry {
	e := v.buf[v.succs+8*i : v.succs+8*i+8]
	return SuccEntry{
		To:   graph.NodeID(binary.LittleEndian.Uint32(e)),
		Cost: math.Float32frombits(binary.LittleEndian.Uint32(e[4:])),
	}
}

func (v recordView) pred(i int) graph.NodeID {
	return graph.NodeID(binary.LittleEndian.Uint32(v.buf[v.preds+4*i:]))
}

// succCost scans the successor-list for to and returns the edge cost.
func (v recordView) succCost(to graph.NodeID) (float32, bool) {
	for o := v.succs; o < v.preds; o += 8 {
		if binary.LittleEndian.Uint32(v.buf[o:]) == uint32(to) {
			return math.Float32frombits(binary.LittleEndian.Uint32(v.buf[o+4:])), true
		}
	}
	return 0, false
}

// Road networks have bounded degree and carry a few words of node
// attributes: a record whose parts fit these bounds is materialized in
// one allocation (176 bytes, one size class above the bare lists).
const (
	inlineSuccs = 4
	inlinePreds = 4
	inlineAttrs = 32
)

type inlineRecord struct {
	rec   Record
	succs [inlineSuccs]SuccEntry
	preds [inlinePreds]graph.NodeID
	attrs [inlineAttrs]byte
}

// record materializes the view as a Record that owns its memory.
func (v recordView) record() *Record { return v.recordIn(new(inlineRecord)) }

// recordIn materializes the view into in, whose arrays hold the lists
// when they fit; a part that does not fit gets its own allocation.
func (v recordView) recordIn(in *inlineRecord) *Record {
	a, s, p := v.succs-recordHeaderSize, v.numSuccs(), v.numPreds()
	r := &in.rec
	if a <= inlineAttrs && s <= inlineSuccs && p <= inlinePreds {
		// Full slice expressions: an append to one part of the result
		// must reallocate, never grow into the neighboring array.
		r.Attrs, r.Succs, r.Preds = in.attrs[:a:a], in.succs[:s:s], in.preds[:p:p]
	} else {
		r.Attrs, r.Succs, r.Preds = make([]byte, a), make([]SuccEntry, s), make([]graph.NodeID, p)
	}
	// An absent part is nil, as a hand-built record's would be.
	if a == 0 {
		r.Attrs = nil
	}
	if s == 0 {
		r.Succs = nil
	}
	if p == 0 {
		r.Preds = nil
	}
	r.ID, r.Pos = v.id(), v.pos()
	copy(r.Attrs, v.buf[recordHeaderSize:v.succs])
	for i := range r.Succs {
		r.Succs[i] = v.succ(i)
	}
	for i := range r.Preds {
		r.Preds[i] = v.pred(i)
	}
	return r
}

// RecordID extracts just the node id from a record image, for cheap
// in-page scans.
func RecordID(buf []byte) (graph.NodeID, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("%w: %d bytes", ErrCorruptRecord, len(buf))
	}
	return graph.NodeID(binary.LittleEndian.Uint32(buf[0:4])), nil
}

// RecordFromNode builds the stored record of node id in g.
func RecordFromNode(g *graph.Network, id graph.NodeID) (*Record, error) {
	n, err := g.Node(id)
	if err != nil {
		return nil, err
	}
	r := &Record{ID: id, Pos: n.Pos}
	if n.Attrs != nil {
		r.Attrs = append([]byte(nil), n.Attrs...)
	}
	for _, e := range g.SuccessorEdges(id) {
		r.Succs = append(r.Succs, SuccEntry{To: e.To, Cost: float32(e.Cost)})
	}
	r.Preds = g.Predecessors(id)
	return r, nil
}

// RecordSizer returns a sizeOf function for partitioning: the encoded
// size of each node's RecordFromNode record, computed from the node's
// attribute and list lengths without building the record.
func RecordSizer(g *graph.Network) func(graph.NodeID) int {
	return func(id graph.NodeID) int {
		n, err := g.Node(id)
		if err != nil {
			return recordHeaderSize
		}
		succs, preds := g.Degree(id)
		return encodedSize(len(n.Attrs), succs, preds)
	}
}

// StoredSizer is RecordSizer plus the slotted-page per-record overhead;
// use it as the sizeOf function when clustering nodes into pages of
// budget PageBudget(pageSize), so that the resulting groups are
// guaranteed to physically fit.
func StoredSizer(g *graph.Network) func(graph.NodeID) int {
	base := RecordSizer(g)
	return func(id graph.NodeID) int { return base(id) + storage.PerRecordOverhead }
}

// PageBudget returns the byte budget available to StoredSizer-sized
// records on one data page of the given size.
func PageBudget(pageSize int) int {
	return pageSize - storage.SlottedHeaderOverhead - storage.PerRecordOverhead
}

// HasSucc reports whether succ appears in r's successor-list.
func (r *Record) HasSucc(succ graph.NodeID) bool {
	for _, s := range r.Succs {
		if s.To == succ {
			return true
		}
	}
	return false
}

// AddSucc appends an entry to the successor-list (no duplicate check).
func (r *Record) AddSucc(to graph.NodeID, cost float32) {
	r.Succs = append(r.Succs, SuccEntry{To: to, Cost: cost})
}

// RemoveSucc deletes the entry for 'to'; reports whether it existed.
func (r *Record) RemoveSucc(to graph.NodeID) bool {
	for i, s := range r.Succs {
		if s.To == to {
			r.Succs = append(r.Succs[:i], r.Succs[i+1:]...)
			return true
		}
	}
	return false
}

// AddPred appends an entry to the predecessor-list.
func (r *Record) AddPred(from graph.NodeID) {
	r.Preds = append(r.Preds, from)
}

// RemovePred deletes the entry for 'from'; reports whether it existed.
func (r *Record) RemovePred(from graph.NodeID) bool {
	for i, p := range r.Preds {
		if p == from {
			r.Preds = append(r.Preds[:i], r.Preds[i+1:]...)
			return true
		}
	}
	return false
}

// Neighbors returns the deduplicated neighbor-list of the record.
func (r *Record) Neighbors() []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, s := range r.Succs {
		if !seen[s.To] {
			seen[s.To] = true
			out = append(out, s.To)
		}
	}
	for _, p := range r.Preds {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := &Record{ID: r.ID, Pos: r.Pos}
	if r.Attrs != nil {
		c.Attrs = append([]byte(nil), r.Attrs...)
	}
	c.Succs = append([]SuccEntry(nil), r.Succs...)
	c.Preds = append([]graph.NodeID(nil), r.Preds...)
	return c
}
