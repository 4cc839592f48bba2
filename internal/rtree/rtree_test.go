package rtree

import (
	"errors"
	"math/rand"
	"testing"

	"ccam/internal/geom"
)

func TestEmptyTree(t *testing.T) {
	tr := New(8)
	if tr.Len() != 0 {
		t.Fatal("fresh tree not empty")
	}
	found := 0
	tr.Search(geom.NewRect(geom.Point{X: -1e9, Y: -1e9}, geom.Point{X: 1e9, Y: 1e9}),
		func(geom.Point, uint64) bool { found++; return true })
	if found != 0 {
		t.Fatal("search on empty tree yields entries")
	}
	if err := tr.Delete(geom.Point{}, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete on empty = %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(4)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 5, Y: 5}, {X: 9, Y: 9}}
	for i, p := range pts {
		tr.Insert(p, uint64(i))
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	tr.Search(geom.NewRect(geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 6, Y: 6}),
		func(_ geom.Point, ref uint64) bool { got[ref] = true; return true })
	if len(got) != 3 || !got[1] || !got[2] || !got[3] {
		t.Fatalf("search result = %v", got)
	}
	// Early-stop works.
	n := 0
	tr.Search(geom.NewRect(geom.Point{X: -1, Y: -1}, geom.Point{X: 10, Y: 10}),
		func(geom.Point, uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := New(8)
	type pt struct {
		p   geom.Point
		ref uint64
	}
	var live []pt
	nextRef := uint64(0)

	for op := 0; op < 4000; op++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.6:
			p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			tr.Insert(p, nextRef)
			live = append(live, pt{p, nextRef})
			nextRef++
		default:
			i := rng.Intn(len(live))
			if err := tr.Delete(live[i].p, live[i].ref); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if op%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Range queries match brute force.
	for trial := 0; trial < 50; trial++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		rect := geom.NewRect(geom.Point{X: x, Y: y},
			geom.Point{X: x + rng.Float64()*40, Y: y + rng.Float64()*40})
		want := map[uint64]bool{}
		for _, e := range live {
			if rect.Contains(e.p) {
				want[e.ref] = true
			}
		}
		got := map[uint64]bool{}
		tr.Search(rect, func(_ geom.Point, ref uint64) bool { got[ref] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for ref := range got {
			if !want[ref] {
				t.Fatalf("trial %d: unexpected ref %d", trial, ref)
			}
		}
	}
}

func TestDuplicatePointsDistinctRefs(t *testing.T) {
	tr := New(4)
	p := geom.Point{X: 3, Y: 3}
	for i := uint64(0); i < 10; i++ {
		tr.Insert(p, i)
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(p, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(p, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	got := map[uint64]bool{}
	tr.Search(geom.NewRect(p, p), func(_ geom.Point, ref uint64) bool { got[ref] = true; return true })
	if len(got) != 9 || got[7] {
		t.Fatalf("search = %v", got)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		pts = append(pts, p)
		tr.Insert(p, uint64(i))
	}
	for i, p := range pts {
		if err := tr.Delete(p, uint64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Insert(geom.Point{X: 1, Y: 1}, 42)
	var refs []uint64
	tr.Search(geom.NewRect(geom.Point{}, geom.Point{X: 2, Y: 2}), func(_ geom.Point, ref uint64) bool {
		refs = append(refs, ref)
		return true
	})
	if len(refs) != 1 || refs[0] != 42 {
		t.Fatalf("reuse failed: %v", refs)
	}
}
