package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Forged and damaged dict chunks; each is also a file of the committed
// FuzzDictDecode corpus.
var (
	// One row, a dictionary of 1<<62 entries: sizing the dictionary from the
	// header used to panic with "makeslice: len out of range".
	forgedDictSize = binary.AppendUvarint([]byte{1}, 1<<62)
	// 1<<62 rows over a one-entry dictionary: the same panic from the row
	// count.
	forgedDictRows = append(binary.AppendUvarint(nil, 1<<62), 1, 1, 'a', 0)
	// Two rows, one entry "a", codes 0 and 5.
	dictCodeOutOfRange = []byte{2, 1, 1, 'a', 0, 5}
	// One row, one entry of declared length 10 with three bytes present.
	dictTruncatedEntry = []byte{1, 1, 10, 'a', 'b', 'c'}
)

// dictKinds are the kinds a dict chunk is decoded as: every kind Dict
// stores.
var dictKinds = []value.Kind{value.Str, value.Bytes, value.Int, value.Float, value.Bool, value.List}

// decodeDictBothWays decodes one chunk through the boxed reference and the
// vector path and requires one verdict: both fail, or both yield the same
// values.
func decodeDictBothWays(t *testing.T, chunk []byte, k value.Kind) error {
	t.Helper()
	boxed, boxedErr := ref(Dict{}).Decode(chunk, k)
	var v vec.Vector
	v.Reset(k)
	vecErr := DecodeVec(Dict{}, chunk, k, &v)
	if (boxedErr == nil) != (vecErr == nil) {
		t.Fatalf("%s chunk %x: boxed error %v, vector error %v", k, chunk, boxedErr, vecErr)
	}
	if boxedErr != nil {
		return boxedErr
	}
	if v.Len() != len(boxed) {
		t.Fatalf("%s chunk %x: %d boxed values, %d vector rows", k, chunk, len(boxed), v.Len())
	}
	for i, want := range boxed {
		if got := v.Value(i); got.Kind() != want.Kind() || !value.Equal(got, want) {
			t.Fatalf("%s chunk %x row %d: vector %v, boxed %v", k, chunk, i, got, want)
		}
	}
	return nil
}

// TestDictCorruptChunksAreErrors is the regression test for headers that
// claim more rows or entries than the chunk has bytes: a typed error from
// every Dict decoder, never a panic and never an allocation sized by the
// claim.
func TestDictCorruptChunksAreErrors(t *testing.T) {
	strings := []value.Kind{value.Str, value.Bytes}
	for _, c := range []struct {
		name  string
		chunk []byte
		kinds []value.Kind // the last two chunks are laid out as string chunks
	}{
		{"forged dictionary size", forgedDictSize, dictKinds},
		{"forged row count", forgedDictRows, dictKinds},
		{"code out of range", dictCodeOutOfRange, strings},
		{"truncated entry", dictTruncatedEntry, strings},
	} {
		for _, k := range c.kinds {
			if err := decodeDictBothWays(t, c.chunk, k); err == nil {
				t.Errorf("%s as %s: decoded without error", c.name, k)
			}
		}
	}
}

// FuzzDictDecode feeds arbitrary bytes to the Dict decoders as every kind:
// they return an error or agree, and never panic.
func FuzzDictDecode(f *testing.F) {
	r := rand.New(rand.NewSource(9))
	for ki, k := range dictKinds {
		chunk, err := ref(Dict{}).Encode(nil, k, randVals(r, k, 40))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(chunk, uint8(ki))
	}
	f.Fuzz(func(t *testing.T, chunk []byte, kind uint8) {
		_ = decodeDictBothWays(t, chunk, dictKinds[int(kind)%len(dictKinds)])
	})
}

// TestDictDecodesToDictionaryForm pins what the vector path buys: the
// chunk's entries once in the arena, one code per row, nothing per row.
func TestDictDecodesToDictionaryForm(t *testing.T) {
	vals := randVals(rand.New(rand.NewSource(4)), value.Str, 500)
	chunk, err := encodeVals(t, Dict{}, value.Str, vals)
	if err != nil {
		t.Fatal(err)
	}
	var v vec.Vector
	v.Reset(value.Str)
	if err := DecodeVec(Dict{}, chunk, value.Str, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Codes) != len(vals) || v.Entries() != 6 {
		t.Fatalf("%d codes over %d entries, want %d over 6", len(v.Codes), v.Entries(), len(vals))
	}
	allocs := testing.AllocsPerRun(10, func() {
		v.Reset(value.Str)
		if err := DecodeVec(Dict{}, chunk, value.Str, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding into a warm vector allocated %.0f times", allocs)
	}
	// Zero rows decode to an empty column, not a dictionary without codes.
	empty, err := encodeVals(t, Dict{}, value.Str, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Reset(value.Str)
	if err := DecodeVec(Dict{}, empty, value.Str, &v); err != nil || v.Len() != 0 {
		t.Fatalf("empty chunk: %d rows, %v", v.Len(), err)
	}
}

// wordSeries returns n words exercising the delta codec's corners: regular
// steps (one-byte second differences), jitter, jumps between the extremes
// (ten-byte varints and uint64 wraparound) and, as floats, NaN and ±Inf.
func wordSeries(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	cur, step := uint64(r.Int63()), uint64(r.Intn(1000))
	extremes := []uint64{0, 1, math.MaxUint64, 1 << 63, 1<<63 - 1,
		math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))}
	for i := range out {
		switch r.Intn(10) {
		case 0:
			cur = extremes[r.Intn(len(extremes))]
		case 1:
			cur += uint64(r.Int63()) - uint64(r.Int63())
		case 2, 3:
			cur += step + uint64(r.Intn(200)) - 100
		default:
			cur += step
		}
		out[i] = cur
	}
	return out
}

// TestTypedDecodersMatchBoxed holds the Delta and None loops (sized once,
// stored by index, first iterations peeled, one-byte varints decoded in
// line) to the boxed reference decoders, which walk the chunk value by value
// through binary.Varint and append: same values on random series, and the
// same verdict on every truncation.
func TestTypedDecodersMatchBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(1609))
	for _, c := range []Codec{Delta{}, None{}} {
		for round := 0; round < 200; round++ {
			n := []int{0, 1, 2, 3, 50, 700}[round%6]
			words := wordSeries(r, n)
			for _, k := range []value.Kind{value.Int, value.Float} {
				vals := make([]value.Value, n)
				for i, w := range words {
					if k == value.Int {
						vals[i] = value.NewInt(int64(w))
					} else {
						vals[i] = value.NewFloat(math.Float64frombits(w))
					}
				}
				chunk, err := ref(c).Encode(nil, k, vals)
				if err != nil {
					t.Fatal(err)
				}
				for cut := 0; cut <= len(chunk) && cut <= 40; cut++ {
					src := chunk[:len(chunk)-cut]
					boxed, boxedErr := ref(c).Decode(src, k)
					got, typedErr := typedWords(t, c, k, src)
					if (boxedErr == nil) != (typedErr == nil) {
						t.Fatalf("%s/%s n=%d cut=%d: boxed error %v, typed error %v", c.Name(), k, n, cut, boxedErr, typedErr)
					}
					if boxedErr != nil {
						continue
					}
					if len(got) != len(boxed) {
						t.Fatalf("%s/%s n=%d cut=%d: %d typed values, %d boxed", c.Name(), k, n, cut, len(got), len(boxed))
					}
					for i, b := range boxed {
						if want := wordOf(b); got[i] != want {
							t.Fatalf("%s/%s n=%d cut=%d word %d: typed %#x, boxed %#x", c.Name(), k, n, cut, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// wordOf returns an Int or Float value's 64-bit pattern.
func wordOf(v value.Value) uint64 {
	if v.Kind() == value.Float {
		return math.Float64bits(v.Float())
	}
	return uint64(v.Int())
}

// typedWords runs c's typed decoder for kind k into a dst that already
// holds one value, checks that value survived (decoders append), and
// returns the bit patterns of what was appended.
func typedWords(t *testing.T, c Codec, k value.Kind, src []byte) ([]uint64, error) {
	t.Helper()
	var out []uint64
	if k == value.Int {
		xs, err := c.(Int64Decoder).DecodeInt64s(src, []int64{7})
		if err != nil {
			return nil, err
		}
		if len(xs) == 0 || xs[0] != 7 {
			t.Fatalf("%s: DecodeInt64s overwrote dst", c.Name())
		}
		for _, x := range xs[1:] {
			out = append(out, uint64(x))
		}
		return out, nil
	}
	xs, err := c.(Float64Decoder).DecodeFloat64s(src, []float64{7})
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 || xs[0] != 7 {
		t.Fatalf("%s: DecodeFloat64s overwrote dst", c.Name())
	}
	for _, x := range xs[1:] {
		out = append(out, math.Float64bits(x))
	}
	return out, nil
}
