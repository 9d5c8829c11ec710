package zorder

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Interleave2 interleaves the bits of x and y into a single Morton code.
// Bit i of x maps to bit 2i of the result; bit i of y maps to bit 2i+1.
// Nearby (x, y) pairs receive nearby codes, which is what lets the storage
// backend co-locate spatially adjacent grid cells on disk.
func Interleave2(x, y uint32) uint64 {
	return spread(uint64(x)) | spread(uint64(y))<<1
}

// spread inserts a zero bit between each of the low 32 bits of v.
func spread(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Deinterleave2 is the inverse of Interleave2.
func Deinterleave2(z uint64) (x, y uint32) {
	return uint32(compact(z)), uint32(compact(z >> 1))
}

// compact drops the odd bits of v and packs the even bits together; it is
// the inverse of spread.
func compact(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// DeinterleaveN is the inverse of InterleaveN.
func DeinterleaveN(z uint64, n, bits int) ([]uint32, error) {
	if n <= 0 || bits <= 0 || n*bits > 64 {
		return nil, fmt.Errorf("zorder: invalid dims %d × bits %d", n, bits)
	}
	coords := make([]uint32, n)
	for b := 0; b < bits; b++ {
		for d := 0; d < n; d++ {
			bit := (z >> (b*n + d)) & 1
			coords[d] |= uint32(bit) << b
		}
	}
	return coords, nil
}

// Hilbert2Inverse maps a Hilbert distance back to (x, y) on a 2^order grid.
func Hilbert2Inverse(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < 1<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & (uint32(t) ^ rx)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

func TestInterleave2Known(t *testing.T) {
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{2, 3, 14}, // x=10, y=11 -> interleaved 1110
		{0xffffffff, 0, 0x5555555555555555},
		{0, 0xffffffff, 0xaaaaaaaaaaaaaaaa},
	}
	for _, c := range cases {
		if got := Interleave2(c.x, c.y); got != c.want {
			t.Errorf("Interleave2(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestInterleave2Roundtrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := Deinterleave2(Interleave2(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleave2Monotone(t *testing.T) {
	// Within a quadrant, increasing both coordinates increases the z-code.
	f := func(x, y uint16) bool {
		return Interleave2(uint32(x)+1, uint32(y)+1) > Interleave2(uint32(x), uint32(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveN(t *testing.T) {
	// 2-D InterleaveN must agree with Interleave2.
	f := func(x, y uint16) bool {
		z, err := InterleaveN([]uint32{uint32(x), uint32(y)}, 16)
		return err == nil && z == Interleave2(uint32(x), uint32(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 3-D roundtrip.
	g := func(a, b, c uint16) bool {
		coords := []uint32{uint32(a), uint32(b), uint32(c)}
		z, err := InterleaveN(coords, 16)
		if err != nil {
			return false
		}
		back, err := DeinterleaveN(z, 3, 16)
		if err != nil {
			return false
		}
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestInterleaveNDims round-trips InterleaveN through the DeinterleaveN
// oracle for every dimension count, at the most bits per coordinate that
// fit 64, with each coordinate's top bit set as well as at random.
func TestInterleaveNDims(t *testing.T) {
	for n := 1; n <= 8; n++ {
		bits := min(64/n, 32)
		t.Run(fmt.Sprintf("%dx%d", n, bits), func(t *testing.T) {
			mask := uint32(uint64(1)<<bits - 1)
			roundtrip := func(coords []uint32) bool {
				z, err := InterleaveN(coords, bits)
				if err != nil {
					t.Fatal(err)
				}
				back, err := DeinterleaveN(z, n, bits)
				if err != nil {
					t.Fatal(err)
				}
				for d := range coords {
					if back[d] != coords[d] {
						return false
					}
				}
				return true
			}
			top := make([]uint32, n)
			for d := range top {
				top[d] = mask
			}
			if !roundtrip(top) {
				t.Errorf("all-ones coords do not round-trip")
			}
			f := func(seed [8]uint32) bool {
				coords := make([]uint32, n)
				for d := range coords {
					coords[d] = seed[d] & mask
				}
				return roundtrip(coords)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInterleaveNErrors(t *testing.T) {
	if _, err := InterleaveN(nil, 8); err == nil {
		t.Error("expected error for no coords")
	}
	if _, err := InterleaveN(make([]uint32, 9), 8); err == nil {
		t.Error("expected error for 72 bits")
	}
	if _, err := DeinterleaveN(0, 0, 8); err == nil {
		t.Error("expected error for 0 dims")
	}
}

func TestHilbertRoundtrip(t *testing.T) {
	const order = 8
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<order; x += 3 {
		for y := uint32(0); y < 1<<order; y += 3 {
			d := Hilbert2(order, x, y)
			if seen[d] {
				t.Fatalf("duplicate hilbert code %d", d)
			}
			seen[d] = true
			gx, gy := Hilbert2Inverse(order, d)
			if gx != x || gy != y {
				t.Fatalf("Hilbert roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert positions must be 4-adjacent cells: this is the
	// locality property that makes it a candidate curve for cell layout.
	const order = 6
	px, py := Hilbert2Inverse(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := Hilbert2Inverse(order, d)
		dx, dy := int64(x)-int64(px), int64(y)-int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("positions %d and %d not adjacent: (%d,%d) -> (%d,%d)", d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func BenchmarkHilbert2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hilbert2(16, uint32(i)&0xffff, uint32(i*7)&0xffff)
	}
}
