package compress

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rodentstore/internal/oracle"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// roundtrip encodes vals through EncodeVec and decodes the chunk through
// DecodeVec, requiring the values it started from; it returns the chunk.
func roundtrip(t *testing.T, c Codec, k value.Kind, vals []value.Value) []byte {
	t.Helper()
	buf, err := encodeVals(t, c, k, vals)
	if err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	var got vec.Vector
	got.Reset(k)
	if err := DecodeVec(c, buf, k, &got); err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	if got.Len() != len(vals) {
		t.Fatalf("%s: got %d values, want %d", c.Name(), got.Len(), len(vals))
	}
	for i := range vals {
		if !value.Equal(got.Value(i), vals[i]) {
			t.Fatalf("%s: value %d: got %v want %v", c.Name(), i, got.Value(i), vals[i])
		}
	}
	return buf
}

// encodeVals is EncodeVec over the column of the boxed vals.
func encodeVals(t testing.TB, c Codec, k value.Kind, vals []value.Value) ([]byte, error) {
	return EncodeVec(c, nil, k, vectorOf(t, k, vals, false))
}

// ref returns c's boxed reference codec.
func ref(c Codec) oracle.Codec {
	r, err := oracle.LookupCodec(c.Name())
	if err != nil {
		panic(err)
	}
	return r
}

func ints(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewInt(x)
	}
	return out
}

func floats(xs ...float64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewFloat(x)
	}
	return out
}

func strs(xs ...string) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewString(x)
	}
	return out
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, c.Name())
		}
	}
	if c, err := Lookup(""); err != nil || c.Name() != "none" {
		t.Error("empty name should resolve to none")
	}
	if _, err := Lookup("zip9000"); err == nil {
		t.Error("expected error for unknown codec")
	}
}

func TestNoneRoundtrip(t *testing.T) {
	roundtrip(t, None{}, value.Int, ints(1, 2, 3, -9))
	roundtrip(t, None{}, value.Str, strs("a", "", "long string here"))
	roundtrip(t, None{}, value.Float, floats(1.5, -2.5))
	roundtrip(t, None{}, value.Int, nil)
}

func TestDeltaRoundtripInt(t *testing.T) {
	roundtrip(t, Delta{}, value.Int, ints(100, 101, 103, 103, 99, -5))
	roundtrip(t, Delta{}, value.Int, ints(42))
	roundtrip(t, Delta{}, value.Int, nil)
}

func TestDeltaRoundtripFloat(t *testing.T) {
	roundtrip(t, Delta{}, value.Float, floats(42.3601, 42.3602, 42.3604, 42.3601))
	roundtrip(t, Delta{}, value.Float, floats(math.Inf(1), math.Inf(-1), 0, -0.0))
}

func TestDeltaCompressesTrajectories(t *testing.T) {
	// GPS-like data: small increments must compress well below raw 8 B/value.
	vals := make([]value.Value, 1000)
	lat := 42.36
	r := rand.New(rand.NewSource(1))
	for i := range vals {
		lat += (r.Float64() - 0.5) * 1e-4
		vals[i] = value.NewFloat(lat)
	}
	buf := roundtrip(t, Delta{}, value.Float, vals)
	raw := roundtrip(t, None{}, value.Float, vals)
	if len(buf) >= len(raw)*3/4 {
		t.Errorf("delta on trajectory data should save >25%%: delta=%d raw=%d", len(buf), len(raw))
	}
}

func TestDeltaRejectsStrings(t *testing.T) {
	if _, err := encodeVals(t, Delta{}, value.Str, strs("a")); err == nil {
		t.Error("expected error for string delta")
	}
	var v vec.Vector
	v.Reset(value.Str)
	if err := DecodeVec(Delta{}, []byte{1}, value.Str, &v); err == nil {
		t.Error("expected error for string delta decode")
	}
}

func TestDeltaQuick(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]value.Value, len(xs))
		for i, x := range xs {
			vals[i] = value.NewInt(x)
		}
		buf, err := encodeVals(t, Delta{}, value.Int, vals)
		if err != nil {
			return false
		}
		got, err := Delta{}.DecodeInt64s(buf, nil)
		return err == nil && slices.Equal(got, xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRLERoundtrip(t *testing.T) {
	roundtrip(t, RLE{}, value.Int, ints(1, 1, 1, 2, 2, 3, 1))
	roundtrip(t, RLE{}, value.Str, strs("a", "a", "b"))
	roundtrip(t, RLE{}, value.Int, nil)
}

func TestRLECompressesRuns(t *testing.T) {
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewInt(int64(i / 200)) // 5 long runs
	}
	buf := roundtrip(t, RLE{}, value.Int, vals)
	if len(buf) > 100 {
		t.Errorf("RLE of 5 runs should be tiny, got %d bytes", len(buf))
	}
}

func TestDictRoundtrip(t *testing.T) {
	roundtrip(t, Dict{}, value.Str, strs("boston", "cambridge", "boston", "boston", "somerville"))
	roundtrip(t, Dict{}, value.Int, ints(5, 5, 9, 5, 9))
	roundtrip(t, Dict{}, value.Str, nil)
}

func TestDictCompressesLowCardinality(t *testing.T) {
	vals := make([]value.Value, 2000)
	cities := []string{"boston-massachusetts", "cambridge-massachusetts", "somerville-massachusetts"}
	r := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = value.NewString(cities[r.Intn(len(cities))])
	}
	buf := roundtrip(t, Dict{}, value.Str, vals)
	raw := roundtrip(t, None{}, value.Str, vals)
	if len(buf) >= len(raw)/4 {
		t.Errorf("dict should save >75%% on 3-value column: dict=%d raw=%d", len(buf), len(raw))
	}
}

func TestDictDeterministic(t *testing.T) {
	// Same multiset in different arrival order produces the same sorted
	// dictionary, so encodings have identical length, and re-encoding the
	// same block is byte-identical.
	a, _ := encodeVals(t, Dict{}, value.Str, strs("b", "a", "b"))
	b, _ := encodeVals(t, Dict{}, value.Str, strs("b", "b", "a"))
	if len(a) != len(b) {
		t.Errorf("permuted blocks should encode to the same length: %d vs %d", len(a), len(b))
	}
	a2, _ := encodeVals(t, Dict{}, value.Str, strs("b", "a", "b"))
	if string(a) != string(a2) {
		t.Error("dict encoding must be deterministic")
	}
}

func TestBitPackRoundtrip(t *testing.T) {
	roundtrip(t, BitPack{}, value.Int, ints(100, 101, 102, 100, 115))
	roundtrip(t, BitPack{}, value.Int, ints(7, 7, 7)) // width 0
	roundtrip(t, BitPack{}, value.Int, ints(-1000, 1000))
	roundtrip(t, BitPack{}, value.Int, nil)
	roundtrip(t, BitPack{}, value.Int, ints(math.MinInt64, math.MaxInt64))
}

func TestBitPackQuick(t *testing.T) {
	f := func(xs []int32, base int64) bool {
		vals := make([]value.Value, len(xs))
		for i, x := range xs {
			vals[i] = value.NewInt(base + int64(x))
		}
		buf, err := encodeVals(t, BitPack{}, value.Int, vals)
		if err != nil {
			return false
		}
		got, err := BitPack{}.DecodeInt64s(buf, nil)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitPackCompressesNarrowRange(t *testing.T) {
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewInt(1700000000 + int64(i%16)) // 4-bit span
	}
	buf := roundtrip(t, BitPack{}, value.Int, vals)
	if len(buf) > 600 { // 4 bits * 1000 = 500 B + header
		t.Errorf("bitpack of 4-bit span should be ~500 B, got %d", len(buf))
	}
}

func TestBitPackRejectsFloats(t *testing.T) {
	if _, err := encodeVals(t, BitPack{}, value.Float, floats(1)); err == nil {
		t.Error("expected error")
	}
}

func TestNullsRejected(t *testing.T) {
	withNull := []value.Value{value.NewInt(1), value.NullValue()}
	for _, c := range []Codec{None{}, Delta{}, RLE{}, Dict{}, BitPack{}} {
		if _, err := encodeVals(t, c, value.Int, withNull); err == nil {
			t.Errorf("%s: expected error on null value", c.Name())
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for _, c := range []Codec{None{}, Delta{}, RLE{}, Dict{}, BitPack{}} {
		// Must error or return values, never panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked on garbage: %v", c.Name(), r)
				}
			}()
			var v vec.Vector
			v.Reset(value.Int)
			DecodeVec(c, garbage, value.Int, &v)
			DecodeVec(c, nil, value.Int, &v)
		}()
	}
}

func BenchmarkDeltaEncodeFloat(b *testing.B) {
	vals := make([]value.Value, 1000)
	lat := 42.36
	for i := range vals {
		lat += 1e-5
		vals[i] = value.NewFloat(lat)
	}
	col := vectorOf(b, value.Float, vals, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ := EncodeVec(Delta{}, nil, value.Float, col)
		_ = buf
	}
}

func BenchmarkDictEncode(b *testing.B) {
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewString([]string{"a", "bb", "ccc"}[i%3])
	}
	col := vectorOf(b, value.Str, vals, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ := EncodeVec(Dict{}, nil, value.Str, col)
		_ = buf
	}
}
