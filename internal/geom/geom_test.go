package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInterleaveRoundTrip(t *testing.T) {
	cases := []struct{ x, y uint32 }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{maxCoord, maxCoord}, {maxCoord, 0}, {0, maxCoord},
		{12345, 67890}, {1 << 30, 1 << 29},
	}
	for _, c := range cases {
		z := Interleave(c.x, c.y)
		gx, gy := Deinterleave(z)
		if gx != c.x || gy != c.y {
			t.Errorf("Interleave(%d,%d) round trip = (%d,%d)", c.x, c.y, gx, gy)
		}
	}
}

func TestInterleaveRoundTripProperty(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= maxCoord
		y &= maxCoord
		gx, gy := Deinterleave(Interleave(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveMonotoneInEachDimension(t *testing.T) {
	// Fixing one coordinate, increasing the other must increase Z.
	f := func(x1, x2, y uint32) bool {
		x1 &= maxCoord
		x2 &= maxCoord
		y &= maxCoord
		if x1 == x2 {
			return Interleave(x1, y) == Interleave(x2, y)
		}
		lo, hi := x1, x2
		if lo > hi {
			lo, hi = hi, lo
		}
		return Interleave(lo, y) < Interleave(hi, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerCorners(t *testing.T) {
	b := NewRect(Point{0, 0}, Point{100, 200})
	q := NewQuantizer(b)
	if x, y := q.Grid(Point{0, 0}); x != 0 || y != 0 {
		t.Errorf("min corner = (%d,%d), want (0,0)", x, y)
	}
	x, y := q.Grid(Point{100, 200})
	if x != maxCoord || y != maxCoord {
		t.Errorf("max corner = (%d,%d), want (%d,%d)", x, y, maxCoord, maxCoord)
	}
	// Out-of-bounds points clamp.
	if x, y := q.Grid(Point{-5, 300}); x != 0 || y != maxCoord {
		t.Errorf("clamp = (%d,%d)", x, y)
	}
}

func TestQuantizerDegenerateBounds(t *testing.T) {
	q := NewQuantizer(NewRect(Point{5, 5}, Point{5, 5}))
	if z := q.Z(Point{5, 5}); z != 0 {
		t.Errorf("degenerate bounds Z = %d, want 0", z)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 0}) // corners given out of order
	if r.Min.X != 0 || r.Min.Y != 0 || r.Max.X != 10 || r.Max.Y != 20 {
		t.Fatalf("NewRect normalization failed: %+v", r)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 20}) || !r.Contains(Point{5, 5}) {
		t.Error("Contains rejects interior/boundary point")
	}
	if r.Contains(Point{10.01, 5}) {
		t.Error("Contains accepts exterior point")
	}
}

func TestZPreservesProximityOrderOnDiagonal(t *testing.T) {
	q := NewQuantizer(NewRect(Point{0, 0}, Point{1, 1}))
	// Along the main diagonal Z is strictly increasing.
	prev := uint64(0)
	for i := 1; i <= 100; i++ {
		p := Point{float64(i) / 100, float64(i) / 100}
		z := q.Z(p)
		if z <= prev {
			t.Fatalf("Z not increasing along diagonal at step %d", i)
		}
		prev = z
	}
}

func TestInZRect(t *testing.T) {
	lo := Interleave(2, 3)
	hi := Interleave(10, 12)
	if !InZRect(Interleave(5, 7), lo, hi) {
		t.Error("interior point rejected")
	}
	if InZRect(Interleave(1, 7), lo, hi) {
		t.Error("x below range accepted")
	}
	if InZRect(Interleave(5, 13), lo, hi) {
		t.Error("y above range accepted")
	}
	if !InZRect(lo, lo, hi) || !InZRect(hi, lo, hi) {
		t.Error("corners must be inside")
	}
}

// inZRectDeinterleaved is the Z-region test on the coordinates
// themselves, the form InZRect's masked compare replaced.
func inZRectDeinterleaved(z, lo, hi uint64) bool {
	zx, zy := Deinterleave(z)
	lox, loy := Deinterleave(lo)
	hix, hiy := Deinterleave(hi)
	return zx >= lox && zx <= hix && zy >= loy && zy <= hiy
}

// TestInZRectMatchesDeinterleaved holds the masked compare against the
// de-interleaving one on random values (small grids too, where the
// point is often inside) and on the edges: 0, all ones, lo = hi, and
// a window whose lo lies above its hi in one dimension.
func TestInZRectMatchesDeinterleaved(t *testing.T) {
	const ones = ^uint64(0)
	edges := []uint64{0, 1, 2, 3, ones, ones >> 1, ones &^ 1, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		Interleave(7, 9), Interleave(maxCoord, 0), Interleave(0, maxCoord)}
	check := func(z, lo, hi uint64) {
		t.Helper()
		if got, want := InZRect(z, lo, hi), inZRectDeinterleaved(z, lo, hi); got != want {
			t.Fatalf("InZRect(%#x, %#x, %#x) = %v, the de-interleaved test says %v", z, lo, hi, got, want)
		}
	}
	for _, z := range edges {
		for _, lo := range edges {
			check(z, lo, lo)
			for _, hi := range edges {
				check(z, lo, hi)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		bits := uint(1 + rng.Intn(32)) // coordinates of 1..32 bits
		coord := func() uint32 { return uint32(rng.Uint64() >> (64 - bits)) }
		z := Interleave(coord(), coord())
		lo, hi := Interleave(coord(), coord()), Interleave(coord(), coord())
		check(z, lo, hi)
		check(z, lo, lo)
		check(lo, lo, hi)
		check(rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
}

func TestBigMinSkipsGaps(t *testing.T) {
	// Query rectangle [2,10]x[3,12]. For any z outside the rectangle,
	// BigMin must return the smallest in-rectangle Z above z.
	lo := Interleave(2, 3)
	hi := Interleave(10, 12)

	// Collect all in-rect z values by brute force.
	var inRect []uint64
	for x := uint32(0); x <= 16; x++ {
		for y := uint32(0); y <= 16; y++ {
			z := Interleave(x, y)
			if InZRect(z, lo, hi) {
				inRect = append(inRect, z)
			}
		}
	}
	next := func(z uint64) (uint64, bool) {
		best := uint64(0)
		found := false
		for _, v := range inRect {
			if v > z && (!found || v < best) {
				best, found = v, true
			}
		}
		return best, found
	}
	for x := uint32(0); x <= 16; x++ {
		for y := uint32(0); y <= 16; y++ {
			z := Interleave(x, y)
			if InZRect(z, lo, hi) {
				continue
			}
			want, wantOK := next(z)
			got, gotOK := BigMin(z, lo, hi)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("BigMin(z=Interleave(%d,%d)) = (%d,%v), want (%d,%v)",
					x, y, got, gotOK, want, wantOK)
			}
		}
	}
}

// bigMinFullLoop is BigMin as it was before its loop learned to skip
// the leading bits on which z, lo and hi agree: every one of the 64
// bits is visited. BigMin must agree with it on every input.
func bigMinFullLoop(z, lo, hi uint64) (uint64, bool) {
	bigmin := uint64(0)
	haveBigmin := false
	for bit := 63; bit >= 0; bit-- {
		mask := uint64(1) << uint(bit)
		zb, lb, hb := z&mask != 0, lo&mask != 0, hi&mask != 0
		switch {
		case !zb && !lb && !hb:
		case !zb && !lb && hb:
			bigmin = loadBits(lo, bit)
			haveBigmin = true
			hi = maxBits(hi, bit)
		case !zb && lb && hb:
			return lo, true
		case zb && !lb && !hb:
			return bigmin, haveBigmin
		case zb && !lb && hb:
			lo = loadBits(lo, bit)
		case zb && lb && hb:
		default:
			return bigmin, haveBigmin
		}
	}
	return bigmin, haveBigmin
}

func TestBigMinRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// coord draws a grid coordinate of a small, a 16-bit (the spatial
	// index's) or a full-width grid.
	coord := func(scale int) uint32 {
		switch scale {
		case 0:
			return uint32(rng.Intn(64))
		case 1:
			return uint32(rng.Intn(1 << 16))
		default:
			return rng.Uint32() & maxCoord
		}
	}
	inside, outside := 0, 0
	for trial := 0; trial < 20000; trial++ {
		scale := trial % 3
		lox, hix, loy, hiy := coord(scale), coord(scale), coord(scale), coord(scale)
		if lox > hix {
			lox, hix = hix, lox
		}
		if loy > hiy {
			loy, hiy = hiy, loy
		}
		lo, hi := Interleave(lox, loy), Interleave(hix, hiy)
		z := Interleave(coord(scale), coord(scale))
		if trial%4 == 0 {
			// A z inside the rectangle, which the scan never jumps
			// from but which BigMin must still treat as before.
			z = Interleave(lox+uint32(rng.Int63n(int64(hix-lox)+1)), loy+uint32(rng.Int63n(int64(hiy-loy)+1)))
		}
		if InZRect(z, lo, hi) {
			inside++
		} else {
			outside++
		}
		got, ok := BigMin(z, lo, hi)
		want, wantOK := bigMinFullLoop(z, lo, hi)
		if ok != wantOK || got != want {
			t.Fatalf("trial %d: BigMin(%#x, %#x, %#x) = (%#x,%v), full loop (%#x,%v)", trial, z, lo, hi, got, ok, want, wantOK)
		}
	}
	if inside < 1000 || outside < 1000 {
		t.Fatalf("z inside the rectangle %d times, outside %d: both sides need cover", inside, outside)
	}
	// Arbitrary 64-bit words, including ones no rectangle produces.
	for trial := 0; trial < 20000; trial++ {
		z, lo, hi := rng.Uint64(), rng.Uint64(), rng.Uint64()
		if trial%2 == 0 {
			z = lo ^ (z >> rng.Intn(64)) // share a prefix with lo
		}
		got, ok := BigMin(z, lo, hi)
		want, wantOK := bigMinFullLoop(z, lo, hi)
		if ok != wantOK || got != want {
			t.Fatalf("word trial %d: BigMin(%#x, %#x, %#x) = (%#x,%v), full loop (%#x,%v)", trial, z, lo, hi, got, ok, want, wantOK)
		}
	}
	for trial := 0; trial < 200; trial++ {
		lox, hix := uint32(rng.Intn(32)), uint32(rng.Intn(32))
		loy, hiy := uint32(rng.Intn(32)), uint32(rng.Intn(32))
		if lox > hix {
			lox, hix = hix, lox
		}
		if loy > hiy {
			loy, hiy = hiy, loy
		}
		lo, hi := Interleave(lox, loy), Interleave(hix, hiy)
		z := Interleave(uint32(rng.Intn(64)), uint32(rng.Intn(64)))
		if InZRect(z, lo, hi) {
			continue
		}
		got, ok := BigMin(z, lo, hi)
		// Verify by brute force over the rectangle.
		want := uint64(0)
		wantOK := false
		for x := lox; x <= hix; x++ {
			for y := loy; y <= hiy; y++ {
				v := Interleave(x, y)
				if v > z && (!wantOK || v < want) {
					want, wantOK = v, true
				}
			}
		}
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("trial %d: BigMin = (%d,%v), want (%d,%v)", trial, got, ok, want, wantOK)
		}
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	const order = 7
	n := uint32(1) << order
	seen := map[uint64]bool{}
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			d := HilbertIndex(order, x, y)
			if seen[d] {
				t.Fatalf("index %d repeated", d)
			}
			seen[d] = true
			gx, gy := HilbertPoint(order, d)
			if gx != x || gy != y {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
			}
		}
	}
	if len(seen) != int(n)*int(n) {
		t.Fatalf("covered %d cells", len(seen))
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property: consecutive curve positions are grid
	// neighbors (Manhattan distance exactly 1). The Z curve lacks this.
	const order = 6
	n := uint64(1) << (2 * order)
	px, py := HilbertPoint(order, 0)
	for d := uint64(1); d < n; d++ {
		x, y := HilbertPoint(order, d)
		dist := absDiff(x, px) + absDiff(y, py)
		if dist != 1 {
			t.Fatalf("positions %d and %d are %d apart", d-1, d, dist)
		}
		px, py = x, y
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestQuantizerHilbert(t *testing.T) {
	q := NewQuantizer(NewRect(Point{X: 0, Y: 0}, Point{X: 100, Y: 100}))
	// Distinct points get valid indices within the curve's range.
	max := uint64(1) << (2 * HilbertOrder)
	a := q.Hilbert(Point{X: 10, Y: 10})
	b := q.Hilbert(Point{X: 90, Y: 90})
	if a >= max || b >= max {
		t.Fatalf("indices out of range: %d %d", a, b)
	}
	if a == b {
		t.Fatal("distant points collide")
	}
	// Nearby points have nearby indices more often than far ones; test
	// a weak form on the diagonal.
	near := q.Hilbert(Point{X: 10.5, Y: 10.5})
	if d := absDiff64(a, near); d > max/1024 {
		t.Fatalf("neighbor index distance %d implausibly large", d)
	}
}

func absDiff64(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
