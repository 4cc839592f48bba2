package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ccam"
	"ccam/internal/netfile"
	"ccam/internal/wire"
)

// The writer commits 32-op batches: 60% SetEdgeCost, 15% InsertEdge,
// 15% DeleteEdge, 5% node Insert, 5% node Delete, all under the
// SecondOrder policy and all valid against the reference. It deletes
// only edges and nodes it inserted itself, so the readers' keys and
// routes (which use fixture nodes and edges only) stay valid; a delete
// drawn while nothing of its kind is left to delete becomes an insert.

type mutKind uint8

const (
	mutSetCost mutKind = iota
	mutInsertEdge
	mutDeleteEdge
	mutInsertNode
	mutDeleteNode
)

// mutation is one batch op, convertible to either API.
type mutation struct {
	kind      mutKind
	from, to  ccam.NodeID
	cost      float32
	id        ccam.NodeID // delete node
	rec       *ccam.Record
	predCosts []float32
}

// netfileMutation is the mutation as the WAL logs it; its encoded size
// is the "user bytes" of storage.wal_bytes_per_user_byte.
func (m *mutation) netfileMutation() *netfile.Mutation {
	switch m.kind {
	case mutSetCost:
		return &netfile.Mutation{Kind: netfile.MutSetEdgeCost, From: m.from, To: m.to, Cost: m.cost}
	case mutInsertEdge:
		return &netfile.Mutation{Kind: netfile.MutInsertEdge, From: m.from, To: m.to, Cost: m.cost}
	case mutDeleteEdge:
		return &netfile.Mutation{Kind: netfile.MutDeleteEdge, From: m.from, To: m.to}
	case mutInsertNode:
		return &netfile.Mutation{Kind: netfile.MutInsertNode, Rec: m.rec, PredCosts: m.predCosts}
	default:
		return &netfile.Mutation{Kind: netfile.MutDeleteNode, ID: m.id}
	}
}

func toBatch(muts []mutation) *ccam.Batch {
	b := new(ccam.Batch)
	for i := range muts {
		m := &muts[i]
		switch m.kind {
		case mutSetCost:
			b.SetEdgeCost(m.from, m.to, m.cost)
		case mutInsertEdge:
			b.InsertEdge(m.from, m.to, m.cost, ccam.SecondOrder)
		case mutDeleteEdge:
			b.DeleteEdge(m.from, m.to, ccam.SecondOrder)
		case mutInsertNode:
			b.Insert(&ccam.InsertOp{Rec: m.rec.Clone(), PredCosts: m.predCosts}, ccam.SecondOrder)
		case mutDeleteNode:
			b.Delete(m.id, ccam.SecondOrder)
		}
	}
	return b
}

func toWireOps(muts []mutation) []wire.ApplyOp {
	ops := make([]wire.ApplyOp, len(muts))
	for i := range muts {
		m := &muts[i]
		switch m.kind {
		case mutSetCost:
			ops[i] = wire.ApplyOp{Kind: wire.OpSetEdgeCost, From: m.from, To: m.to, Cost: m.cost}
		case mutInsertEdge:
			ops[i] = wire.ApplyOp{Kind: wire.OpInsertEdge, Policy: "second-order", From: m.from, To: m.to, Cost: m.cost}
		case mutDeleteEdge:
			ops[i] = wire.ApplyOp{Kind: wire.OpDeleteEdge, Policy: "second-order", From: m.from, To: m.to}
		case mutInsertNode:
			rj := wire.RecordToJSON(m.rec)
			ops[i] = wire.ApplyOp{Kind: wire.OpInsertNode, Policy: "second-order", Node: &rj, PredCosts: m.predCosts}
		case mutDeleteNode:
			ops[i] = wire.ApplyOp{Kind: wire.OpDeleteNode, Policy: "second-order", ID: m.id}
		}
	}
	return ops
}

// applier commits one batch to the store under test.
type applier func(ctx context.Context, muts []mutation) error

func storeApplier(s *ccam.Store) applier {
	return func(ctx context.Context, muts []mutation) error { return s.Apply(ctx, toBatch(muts)) }
}

func wireApplier(c *wire.Client) applier {
	return func(ctx context.Context, muts []mutation) error {
		n, err := c.Apply(ctx, toWireOps(muts))
		if err == nil && n != len(muts) {
			err = fmt.Errorf("apply acknowledged %d of %d ops", n, len(muts))
		}
		return err
	}
}

// writer generates batches and keeps the reference in step.
type writer struct {
	ref    *reference
	rng    *rand.Rand
	baseID []ccam.NodeID // fixture node ids
	nextID ccam.NodeID
	// edges and nodes the writer inserted and has not deleted yet.
	edges [][2]ccam.NodeID
	nodes []ccam.NodeID
	// staged holds, for the batch being generated, the records it
	// changes; later ops of the batch see earlier ones through it.
	staged map[ccam.NodeID]*netfile.Record
	order  []ccam.NodeID
	born   []extraNode
	died   []ccam.NodeID
}

func newWriter(ref *reference, seed int64) *writer {
	ref.mutable = true
	w := &writer{ref: ref, rng: rand.New(rand.NewSource(seed*7919 + 17)),
		nextID: ccam.NodeID(len(ref.base))}
	for id, rec := range ref.base {
		if rec != nil {
			w.baseID = append(w.baseID, ccam.NodeID(id))
		}
	}
	return w
}

// cur returns the newest record of id, batch in progress included.
func (w *writer) cur(id ccam.NodeID) *netfile.Record {
	if rec, ok := w.staged[id]; ok {
		return rec
	}
	return w.ref.at(id, math.MaxUint64)
}

// edit returns a private copy of id's record that the batch may change.
func (w *writer) edit(id ccam.NodeID) *netfile.Record {
	if rec, ok := w.staged[id]; ok && rec != nil {
		return rec
	}
	rec := w.ref.at(id, math.MaxUint64).Clone()
	w.stage(id, rec)
	return rec
}

func (w *writer) stage(id ccam.NodeID, rec *netfile.Record) {
	if _, ok := w.staged[id]; !ok {
		w.order = append(w.order, id)
	}
	w.staged[id] = rec
}

func (w *writer) randomBase() ccam.NodeID { return w.baseID[w.rng.Intn(len(w.baseID))] }

func (w *writer) randomCost() float32 { return float32(1 + w.rng.Float64()*400) }

// nextBatch generates one valid batch and records its effect in the
// reference at sequence committed+1. The caller applies the batch and
// then calls ack.
func (w *writer) nextBatch() []mutation {
	w.staged = make(map[ccam.NodeID]*netfile.Record)
	w.order, w.born, w.died = w.order[:0], w.born[:0], w.died[:0]
	seq := w.ref.committed.Load() + 1
	muts := make([]mutation, 0, batchOps)
	for len(muts) < batchOps {
		var m mutation
		var ok bool
		switch r := w.rng.Intn(100); {
		case r < 60:
			m, ok = w.genSetCost()
		case r < 75:
			m, ok = w.genInsertEdge()
		case r < 90:
			if m, ok = w.genDeleteEdge(); !ok {
				m, ok = w.genInsertEdge()
			}
		case r < 95:
			m, ok = w.genInsertNode(seq)
		default:
			if m, ok = w.genDeleteNode(); !ok {
				m, ok = w.genInsertNode(seq)
			}
		}
		if ok {
			muts = append(muts, m)
		}
	}
	w.ref.mu.Lock()
	for _, id := range w.order {
		w.ref.hist[id] = append(w.ref.hist[id], version{seq: seq, rec: w.staged[id]})
	}
	w.ref.extra = append(w.ref.extra, w.born...)
	for _, id := range w.died {
		for i := range w.ref.extra {
			if w.ref.extra[i].id == id && w.ref.extra[i].died == 0 {
				w.ref.extra[i].died = seq
			}
		}
	}
	w.ref.nodes += len(w.born) - len(w.died)
	w.ref.mu.Unlock()
	return muts
}

// ack marks the batch generated last as acknowledged.
func (w *writer) ack() { w.ref.committed.Add(1) }

func (w *writer) genSetCost() (mutation, bool) {
	u := w.randomBase()
	rec := w.cur(u)
	if len(rec.Succs) == 0 {
		return mutation{}, false
	}
	i := w.rng.Intn(len(rec.Succs))
	cost := w.randomCost()
	e := w.edit(u)
	e.Succs[i].Cost = cost
	return mutation{kind: mutSetCost, from: u, to: e.Succs[i].To, cost: cost}, true
}

// genInsertEdge links a fixture node to a fixture node two hops away,
// the shape of a new turn or ramp.
func (w *writer) genInsertEdge() (mutation, bool) {
	u := w.randomBase()
	ru := w.cur(u)
	if len(ru.Succs) == 0 {
		return mutation{}, false
	}
	mid := w.cur(ru.Succs[w.rng.Intn(len(ru.Succs))].To)
	if mid == nil || len(mid.Succs) == 0 || int(mid.ID) >= len(w.ref.base) {
		return mutation{}, false
	}
	v := mid.Succs[w.rng.Intn(len(mid.Succs))].To
	if v == u || int(v) >= len(w.ref.base) || ru.HasSucc(v) {
		return mutation{}, false
	}
	cost := w.randomCost()
	w.edit(u).AddSucc(v, cost)
	w.edit(v).AddPred(u)
	w.edges = append(w.edges, [2]ccam.NodeID{u, v})
	return mutation{kind: mutInsertEdge, from: u, to: v, cost: cost}, true
}

func (w *writer) genDeleteEdge() (mutation, bool) {
	if len(w.edges) == 0 {
		return mutation{}, false
	}
	i := w.rng.Intn(len(w.edges))
	u, v := w.edges[i][0], w.edges[i][1]
	w.edges[i] = w.edges[len(w.edges)-1]
	w.edges = w.edges[:len(w.edges)-1]
	w.edit(u).RemoveSucc(v)
	w.edit(v).RemovePred(u)
	return mutation{kind: mutDeleteEdge, from: u, to: v}, true
}

// genInsertNode adds a node beside a fixture edge a->b: new->b and
// a->new, the shape of a new address point on a street.
func (w *writer) genInsertNode(seq uint64) (mutation, bool) {
	a := w.randomBase()
	ra := w.cur(a)
	if len(ra.Succs) == 0 {
		return mutation{}, false
	}
	b := ra.Succs[w.rng.Intn(len(ra.Succs))].To
	if int(b) >= len(w.ref.base) {
		return mutation{}, false
	}
	id := w.nextID
	w.nextID++
	attrs := make([]byte, 24)
	w.rng.Read(attrs)
	pa, pb := ra.Pos, w.cur(b).Pos
	rec := &netfile.Record{
		ID:    id,
		Pos:   ccam.Point{X: (pa.X + pb.X) / 2, Y: (pa.Y + pb.Y) / 2},
		Attrs: attrs,
		Succs: []netfile.SuccEntry{{To: b, Cost: w.randomCost()}},
		Preds: []ccam.NodeID{a},
	}
	predCost := w.randomCost()
	w.stage(id, rec)
	w.edit(b).AddPred(id)
	w.edit(a).AddSucc(id, predCost)
	w.nodes = append(w.nodes, id)
	w.born = append(w.born, extraNode{id: id, pos: rec.Pos, born: seq})
	return mutation{kind: mutInsertNode, rec: rec.Clone(), predCosts: []float32{predCost}}, true
}

func (w *writer) genDeleteNode() (mutation, bool) {
	if len(w.nodes) == 0 {
		return mutation{}, false
	}
	i := w.rng.Intn(len(w.nodes))
	id := w.nodes[i]
	rec := w.cur(id)
	if rec == nil {
		return mutation{}, false
	}
	// A node born in this very batch has no committed lifetime the
	// window oracle could describe; leave it for a later batch.
	for _, b := range w.born {
		if b.id == id {
			return mutation{}, false
		}
	}
	w.nodes[i] = w.nodes[len(w.nodes)-1]
	w.nodes = w.nodes[:len(w.nodes)-1]
	for _, s := range rec.Succs {
		w.edit(s.To).RemovePred(id)
	}
	for _, p := range rec.Preds {
		w.edit(p).RemoveSucc(id)
	}
	w.stage(id, nil)
	w.died = append(w.died, id)
	return mutation{kind: mutDeleteNode, id: id}, true
}

// verifyAfterReopen checks every record the writer ever touched, and
// the node count, against a store reopened from disk. It returns the
// number of records checked and how many disagree.
func (r *reference) verifyAfterReopen(ctx context.Context, s *ccam.Store) (checked, bad int) {
	r.rlock()
	defer r.runlock()
	for id := range r.hist {
		checked++
		want := r.at(id, math.MaxUint64)
		if want == nil {
			if ok, err := s.Has(ctx, id); err != nil || ok {
				bad++
			}
			continue
		}
		got, err := s.Find(ctx, id)
		if err != nil || !recEqual(got, want) {
			bad++
		}
	}
	checked++
	if s.Len() != r.nodes {
		bad++
	}
	return checked, bad
}
