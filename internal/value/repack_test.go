package value

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestValueSize pins the packed layout: a Value is at most 32 bytes, and it
// is not comparable, so == on values stays a compile error rather than a
// comparison of data pointers.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("value.Value is %d bytes, want at most 32", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("value.Value is comparable")
	}
}

// repackSample is a spread of values over every kind and the edges the
// repack touches: signed and extreme ints, -0, NaN payloads, infinities,
// integral floats, empty and nil strings, bytes and lists, nesting.
func repackSample() []Value {
	return []Value{
		NullValue(),
		NewBool(false), NewBool(true),
		NewInt(math.MinInt64), NewInt(-1), NewInt(0), NewInt(1), NewInt(3), NewInt(math.MaxInt64),
		NewFloat(math.Inf(-1)), NewFloat(-2.5), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(3),
		NewFloat(3.25), NewFloat(math.Inf(1)), NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000123)),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewBytes(nil), NewBytes([]byte{}), NewBytes([]byte("a")), NewBytes([]byte{0, 255}),
		NewList(), NewList(NewInt(1)), NewList(NewInt(1), NewString("x")), NewList(NewList(NewFloat(1)), NewBytes([]byte("z"))),
	}
}

// TestPackedSemantics holds Hash and Compare over repackSample to what the
// unpacked layout (one field per payload) computed: the hashes and the
// order matrix below were taken from it.
func TestPackedSemantics(t *testing.T) {
	hashes := []uint64{
		0xaf63bd4c8601b7df, // null
		0x529a2cdc8ff533ac, // false
		0x7194f3e59ae47dcd, // true
		0x0cd9acf54dc6ef65, // -9223372036854775808
		0xaf94b0dfc57cce5d, // -1
		0x0cd92cf54dc615e5, // 0
		0xedde65ec42d6cbc4, // 1
		0x2bd3f3fe58b56006, // 3
		0xaf9430dfc57bf4dd, // 9223372036854775807
		0x79380a97b8fc340b, // -Inf
		0x797c2f97b9363fb6, // -2.5
		0x0cd92cf54dc615e5, // -0
		0x0cd92cf54dc615e5, // 0
		0x2bd3f3fe58b56006, // 3
		0x79837b97b93cdf88, // 3.25
		0x79388a97b8fd0d8b, // +Inf
		0x96d19ba0c2bf9812, // NaN
		0x96d19ba0c2bf9812, // NaN
		0xaf63b94c8601b113, // ""
		0x08254f07b4e084b6, // "a"
		0xb7ea1e185981b43c, // "ab"
		0x08254e07b4e08303, // "b"
		0xaf63b84c8601af60, // 0x
		0xaf63b84c8601af60, // 0x
		0x08212b07b4dc5eb3, // 0x61
		0xadfe6a1853887aed, // 0x00ff
		0xaf63bb4c8601b479, // []
		0x4062a977389d4d00, // [1]
		0xb2bbcc862683b8dc, // [1, "x"]
		0x650baf59a9d6e993, // [[1], 0x7a]
	}
	order := []string{
		"=<<<<<<<<<<<<<<<<<<<<<<<<<<<<<",
		">=<<<<<<<<<<<<<<<<<<<<<<<<<<<<",
		">>=<<<<<<<<<<<<<<<<<<<<<<<<<<<",
		">>>=<<<<<><<<<<<>><<<<<<<<<<<<",
		">>>>=<<<<>><<<<<>><<<<<<<<<<<<",
		">>>>>=<<<>>==<<<>><<<<<<<<<<<<",
		">>>>>>=<<>>>><<<>><<<<<<<<<<<<",
		">>>>>>>=<>>>>=<<>><<<<<<<<<<<<",
		">>>>>>>>=>>>>>><>><<<<<<<<<<<<",
		">>><<<<<<=<<<<<<>><<<<<<<<<<<<",
		">>>><<<<<>=<<<<<>><<<<<<<<<<<<",
		">>>>>=<<<>>==<<<>><<<<<<<<<<<<",
		">>>>>=<<<>>==<<<>><<<<<<<<<<<<",
		">>>>>>>=<>>>>=<<>><<<<<<<<<<<<",
		">>>>>>>><>>>>>=<>><<<<<<<<<<<<",
		">>>>>>>>>>>>>>>=>><<<<<<<<<<<<",
		">>><<<<<<<<<<<<<==<<<<<<<<<<<<",
		">>><<<<<<<<<<<<<==<<<<<<<<<<<<",
		">>>>>>>>>>>>>>>>>>=<<<<<<<<<<<",
		">>>>>>>>>>>>>>>>>>>=<<<<<<<<<<",
		">>>>>>>>>>>>>>>>>>>>=<<<<<<<<<",
		">>>>>>>>>>>>>>>>>>>>>=<<<<<<<<",
		">>>>>>>>>>>>>>>>>>>>>>==<<<<<<",
		">>>>>>>>>>>>>>>>>>>>>>==<<<<<<",
		">>>>>>>>>>>>>>>>>>>>>>>>=><<<<",
		">>>>>>>>>>>>>>>>>>>>>>>><=<<<<",
		">>>>>>>>>>>>>>>>>>>>>>>>>>=<<<",
		">>>>>>>>>>>>>>>>>>>>>>>>>>>=<<",
		">>>>>>>>>>>>>>>>>>>>>>>>>>>>=<",
		">>>>>>>>>>>>>>>>>>>>>>>>>>>>>=",
	}
	s := repackSample()
	for i, a := range s {
		if h := a.Hash(); h != hashes[i] {
			t.Errorf("%s: Hash %#016x, want %#016x", a, h, hashes[i])
		}
		for j, b := range s {
			want := int(order[i][j]) - '=' // '<', '=', '>' are consecutive
			if c := Compare(a, b); c != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, c, want)
			}
			if Equal(a, b) != (want == 0) {
				t.Errorf("Equal(%s, %s) = %v", a, b, Equal(a, b))
			}
		}
	}
}

// TestPackedRoundTrips reads every payload back as it went in, through the
// constructors and through the binary encoding: a float's exact bits (NaN
// payloads included), a nil byte slice as nil and an empty one as
// non-nil, and the length, capacity and identity of byte and list slices.
func TestPackedRoundTrips(t *testing.T) {
	for _, bits := range []uint64{0x7ff8000000000123, 0xfff0000000000001, 0x8000000000000000, math.Float64bits(math.Pi)} {
		f := math.Float64frombits(bits)
		if got := math.Float64bits(NewFloat(f).Float()); got != bits {
			t.Errorf("float bits %#x came back %#x", bits, got)
		}
		v, _, err := DecodeValue(AppendValue(nil, Float, NewFloat(f)), Float)
		if err != nil || math.Float64bits(v.Float()) != bits {
			t.Errorf("encoded float bits %#x came back %#x (%v)", bits, math.Float64bits(v.Float()), err)
		}
	}
	for _, i := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		if got := NewInt(i).Int(); got != i {
			t.Errorf("int %d came back %d", i, got)
		}
		if got := NewInt(i).Float(); got != float64(i) {
			t.Errorf("int %d widened to %g", i, got)
		}
	}
	if NewBool(true).Int() != 1 || NewBool(false).Int() != 0 || !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("bool payloads")
	}
	if b := NewBytes(nil).Bytes(); b != nil {
		t.Errorf("NewBytes(nil).Bytes() = %#v, want nil", b)
	}
	if b := NewBytes([]byte{}).Bytes(); b == nil || len(b) != 0 {
		t.Errorf("NewBytes([]byte{}).Bytes() = %#v, want non-nil and empty", b)
	}
	buf := make([]byte, 3, 10)
	if b := NewBytes(buf).Bytes(); len(b) != 3 || cap(b) != 10 || &b[0] != &buf[0] {
		t.Errorf("Bytes: len %d cap %d, want 3 and 10, aliasing the slice made from", len(b), cap(b))
	}
	kids := make([]Value, 2, 5)
	kids[1] = NewString("k")
	if l := NewList(kids...).List(); len(l) != 2 || cap(l) != 5 || &l[0] != &kids[0] || l[1].Str() != "k" {
		t.Errorf("List: len %d cap %d, want 2 and 5, aliasing the slice made from", len(l), cap(l))
	}
	if l := NewList().List(); len(l) != 0 {
		t.Errorf("empty list has %d children", len(l))
	}
	for _, s := range []string{"", "x", "héllo"} {
		if got := NewString(s).Str(); got != s {
			t.Errorf("string %q came back %q", s, got)
		}
	}
	for _, v := range repackSample() {
		k := v.Kind()
		if k == Null {
			continue
		}
		got, _, err := DecodeValue(AppendValue(nil, k, v), k)
		if err != nil || !Equal(got, v) || got.String() != v.String() {
			t.Errorf("%s encoded as %s came back %s (%v)", v, k, got, err)
		}
	}
}
