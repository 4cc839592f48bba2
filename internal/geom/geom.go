// Package geom provides the small amount of computational geometry CCAM
// needs: 2-D points, bit-interleaved Z-order (Morton) values used to key
// the secondary index, and Z-region decomposition for range queries.
//
// The paper stores x, y coordinates in every node record and orders the
// secondary index by the Z-order of those coordinates (Orenstein
// and Merrett's class of data structures for associative searching), so
// point and range queries on the embedding space remain possible on top
// of a connectivity-clustered data file.
package geom

import (
	"fmt"
	"math/bits"
)

// Point is a location in the plane. Road-map coordinates are stored in
// arbitrary map units; only their relative order matters for Z-values.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, inclusive of its boundary.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any
// orientation.
func NewRect(a, b Point) Rect {
	r := Rect{Min: a, Max: b}
	if r.Min.X > r.Max.X {
		r.Min.X, r.Max.X = r.Max.X, r.Min.X
	}
	if r.Min.Y > r.Max.Y {
		r.Min.Y, r.Max.Y = r.Max.Y, r.Min.Y
	}
	return r
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Quantizer maps points in a bounding rectangle to 32-bit grid
// coordinates so that they can be interleaved into 64-bit Z-values.
// The zero Quantizer is not useful; construct one with NewQuantizer.
type Quantizer struct {
	bounds Rect
	sx, sy float64 // scale factors to [0, maxCoord]
}

// maxCoord is the largest quantized coordinate: 2^31-1 keeps the
// interleaved value within the positive range of a uint64 and leaves
// headroom for exact boundary handling.
const maxCoord = 1<<31 - 1

// NewQuantizer returns a Quantizer for points inside bounds. Degenerate
// (zero-width or zero-height) bounds are accepted; the collapsed axis
// quantizes to zero.
func NewQuantizer(bounds Rect) Quantizer {
	q := Quantizer{bounds: bounds}
	if w := bounds.Width(); w > 0 {
		q.sx = maxCoord / w
	}
	if h := bounds.Height(); h > 0 {
		q.sy = maxCoord / h
	}
	return q
}

// Bounds returns the rectangle the quantizer was built with.
func (q Quantizer) Bounds() Rect { return q.bounds }

// Grid returns the quantized 31-bit grid cell of p. Points outside the
// bounds are clamped onto the boundary.
func (q Quantizer) Grid(p Point) (ix, iy uint32) {
	x := (p.X - q.bounds.Min.X) * q.sx
	y := (p.Y - q.bounds.Min.Y) * q.sy
	return clampCoord(x), clampCoord(y)
}

func clampCoord(v float64) uint32 {
	if v <= 0 {
		return 0
	}
	if v >= maxCoord {
		return maxCoord
	}
	return uint32(v)
}

// Z returns the Z-order (Morton) value of p under the quantizer.
func (q Quantizer) Z(p Point) uint64 {
	ix, iy := q.Grid(p)
	return Interleave(ix, iy)
}

// Interleave bit-interleaves x and y into a Z-order value with x
// occupying the even bit positions (bit 0, 2, 4, ...) and y the odd.
func Interleave(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// Deinterleave is the inverse of Interleave.
func Deinterleave(z uint64) (x, y uint32) {
	return compact(z), compact(z >> 1)
}

// spread inserts a zero bit above every bit of v, producing a 64-bit
// value with the bits of v at even positions.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact drops the odd bits of z and packs the even bits into a uint32.
func compact(z uint64) uint32 {
	x := z & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// InZRect reports whether the point encoded by z lies inside the grid
// rectangle [lo, hi] interpreted dimension-wise (the Z-region test).
// A dimension's bits masked out in place order as the coordinate they
// spread, so nothing is de-interleaved.
func InZRect(z, lo, hi uint64) bool {
	const xs, ys = 0x5555555555555555, 0xaaaaaaaaaaaaaaaa
	zx, zy := z&xs, z&ys
	return zx >= lo&xs && zx <= hi&xs && zy >= lo&ys && zy <= hi&ys
}

// BigMin returns the smallest Z-value greater than z that lies inside
// the Z-region [lo, hi] (the BIGMIN of Tropf and Herzog). A scan over a
// Z-ordered index visits [lo, hi]; on hitting a value outside the grid
// rectangle it jumps to BigMin to skip the gap. The second result is
// false when no such value exists. The bit loop visits only the bits
// where z, lo and hi do not all agree: an "all zero" or "all one" bit
// changes nothing.
func BigMin(z, lo, hi uint64) (uint64, bool) {
	bigmin := uint64(0)
	haveBigmin := false
	for below := ^uint64(0); ; {
		d := ((lo ^ hi) | (lo ^ z)) & below
		if d == 0 {
			break
		}
		bit := 63 - bits.LeadingZeros64(d)
		mask := uint64(1) << uint(bit)
		below = mask - 1
		zb, lb, hb := z&mask != 0, lo&mask != 0, hi&mask != 0
		switch {
		case !zb && !lb && hb:
			// Candidate: region splits; remember the min of the upper
			// half, continue searching the lower half.
			bigmin = loadBits(lo, bit)
			haveBigmin = true
			hi = maxBits(hi, bit)
		case !zb && lb && hb:
			return lo, true
		case zb && !lb && !hb:
			if haveBigmin {
				return bigmin, true
			}
			return 0, false
		case zb && !lb && hb:
			lo = loadBits(lo, bit)
		default:
			// lb && !hb cannot occur for a valid region on this bit
			// pattern; treat as exhausted.
			if haveBigmin {
				return bigmin, true
			}
			return 0, false
		}
	}
	if haveBigmin {
		return bigmin, true
	}
	return 0, false
}

// loadBits returns v with bit set to 1 and, in the same dimension, all
// lower bits cleared ("load 10000..." in the BIGMIN literature).
func loadBits(v uint64, bit int) uint64 {
	mask := uint64(1) << uint(bit)
	dimMask := dimensionMask(bit)
	below := dimMask & (mask - 1)
	return (v &^ below) | mask
}

// maxBits returns v with bit cleared and, in the same dimension, all
// lower bits set ("load 01111...").
func maxBits(v uint64, bit int) uint64 {
	mask := uint64(1) << uint(bit)
	dimMask := dimensionMask(bit)
	below := dimMask & (mask - 1)
	return (v &^ mask) | below
}

// dimensionMask returns the mask selecting all bits belonging to the
// same interleaved dimension as the given bit position.
func dimensionMask(bit int) uint64 {
	if bit%2 == 0 {
		return 0x5555555555555555
	}
	return 0xaaaaaaaaaaaaaaaa
}
