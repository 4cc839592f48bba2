package netfile

import (
	"errors"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// FuzzDecodeMutation holds the WAL's logical-mutation decoder, which
// recovery feeds whatever a crash left in the log: it must never panic,
// every payload it refuses must come back as a wrapped
// storage.ErrWALCorrupt (replay stops there, it does not guess), and a
// mutation it accepts must survive the round trip — re-encoded, it
// decodes to the same mutation.
func FuzzDecodeMutation(f *testing.F) {
	rec := &Record{
		ID: 9, Pos: geom.Point{X: -3.5, Y: 8}, Attrs: []byte("main st"),
		Succs: []SuccEntry{{To: 1, Cost: 2.5}}, Preds: []graph.NodeID{1, 2},
	}
	for _, m := range []*Mutation{
		{Kind: MutInsertNode, Rec: rec, PredCosts: []float32{1.5, 0.25}},
		{Kind: MutDeleteNode, ID: 7},
		{Kind: MutInsertEdge, From: 1, To: 2, Cost: 3},
		{Kind: MutDeleteEdge, From: 1, To: 2},
		{Kind: MutSetEdgeCost, From: 4, To: 5, Cost: 0.5},
	} {
		enc, err := EncodeMutation(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Kinds 6 and 7 are retired (page split and merge records): a log
	// tail that holds one is refused, not skipped.
	for _, retired := range [][]byte{
		{6, 12, 0, 0, 0},                        // split page 12
		{7, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0}, // merge pages 3 and 4
	} {
		if _, err := DecodeMutation(retired); !errors.Is(err, storage.ErrWALCorrupt) {
			f.Fatalf("kind %d record: error %v, want storage.ErrWALCorrupt", retired[0], err)
		}
		f.Add(retired)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(MutInsertNode), 0xFF, 0xFF, 0xFF, 0xFF})    // record length far past the payload
	f.Add([]byte{byte(MutDeleteNode), 0xFF, 0xFF, 0xFF, 0x7F, 1}) // delete-node payload too long
	f.Add([]byte{0x7F, 1, 2, 3})                                  // no such kind

	f.Fuzz(func(t *testing.T, payload []byte) {
		// An exact-capacity copy: a read past len is a read past cap.
		payload = append(make([]byte, 0, len(payload)), payload...)
		m, err := DecodeMutation(payload)
		if err != nil {
			if !errors.Is(err, storage.ErrWALCorrupt) {
				t.Fatalf("DecodeMutation error %v does not wrap storage.ErrWALCorrupt", err)
			}
			return
		}
		enc, err := EncodeMutation(m)
		if err != nil {
			t.Fatalf("a decoded %s mutation does not encode: %v", m.Kind, err)
		}
		again, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("a re-encoded %s mutation does not decode: %v", m.Kind, err)
		}
		// Costs may be NaN, which no == sees as equal: compare images.
		enc2, err := EncodeMutation(again)
		if err != nil || string(enc2) != string(enc) || again.Kind != m.Kind {
			t.Fatalf("%s round trip: %x decodes and re-encodes to %x (%v)", m.Kind, enc, enc2, err)
		}
	})
}
