// Package zorder implements the space-filling curves used by the storage
// algebra's data-reordering transforms (paper §3.5.3). The zorder transform
// rearranges nested elements "according to a z-order traversal of the
// structure" by interleaving the bits of the binary representation of element
// positions:
//
//	zorder(N) ≡ [r' | \r ← N, \r' ← r,
//	             r' orderby interleave(bin(pos(r)), bin(pos(r'))) ASC]
//
// InterleaveN is that interleave(bin(x), bin(y)) helper, generalised to n
// dimensions. The package also provides a Hilbert curve used by the
// curve-ablation experiment (Ext-1 in DESIGN.md). The tests hold the 2-D
// Morton code and the inverses, as oracles the live maps are checked
// against.
package zorder

import "fmt"

// InterleaveN computes an n-dimensional Morton code over coords, using bits
// bits per dimension. It requires len(coords)*bits <= 64. Dimension 0
// occupies the least-significant position of each bit group.
func InterleaveN(coords []uint32, bits int) (uint64, error) {
	n := len(coords)
	if n == 0 {
		return 0, fmt.Errorf("zorder: no coordinates")
	}
	if bits <= 0 || n*bits > 64 {
		return 0, fmt.Errorf("zorder: %d dims × %d bits exceeds 64", n, bits)
	}
	var z uint64
	for b := 0; b < bits; b++ {
		for d := 0; d < n; d++ {
			bit := (uint64(coords[d]) >> b) & 1
			z |= bit << (b*n + d)
		}
	}
	return z, nil
}

// Hilbert2 maps (x, y) on a 2^order × 2^order grid to its distance along the
// Hilbert curve. Hilbert codes have strictly better locality than Morton
// codes (no long diagonal jumps), which the curve ablation quantifies.
func Hilbert2(order uint, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
