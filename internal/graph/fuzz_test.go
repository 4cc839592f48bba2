package graph

import (
	"bytes"
	"testing"
)

// FuzzReadJSON holds the network decoder that feeds Build to three
// properties on any input: it never panics; a refusal is an error with no
// network, never a partial one; and a network it accepts is valid and
// re-encodes through WriteJSON to bytes that decode and re-encode to
// the same bytes.
func FuzzReadJSON(f *testing.F) {
	o := MinneapolisLikeOpts()
	o.Rows, o.Cols, o.AttrBytes = 3, 3, 4
	g, err := RoadMap(o)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`{"nodes":[{"id":1,"x":0,"y":0,"attrs":"AAE="},{"id":2,"x":1.5,"y":-2}],"edges":[{"from":1,"to":2,"cost":1,"weight":0.5}]}`,
		`{"nodes":[{"id":1,"x":0,"y":0}],"edges":[{"from":1,"to":2,"cost":1,"weight":1}]}`,
		`{"nodes":[{"id":1,"x":0,"y":0},{"id":1,"x":1,"y":1}],"edges":[]}`,
		`{"nodes":[{"id":1},{"id":2}],"edges":[{"from":1,"to":2},{"from":1,"to":2}]}`,
		`{"nodes":[{"id":1}],"edges":[{"from":1,"to":1}]}`,
		`{"nodes":[{"id":4294967296}]}`,
		`{"nodes":null,"edges":null}`,
		`{not json`,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			if g != nil {
				t.Fatalf("refusal %v came with a network of %d nodes", err, g.NumNodes())
			}
			return
		}
		if g == nil {
			t.Fatal("no error and no network")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid network: %v", err)
		}
		var first bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatalf("accepted network does not encode: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own encoding refused: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-decoded network does not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
