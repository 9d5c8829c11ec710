package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// randVals builds a random null-free column of kind k with plenty of
// repetition (so rle/dict have real runs) and extremes (so delta/bitpack hit
// their corner cases).
func randVals(r *rand.Rand, k value.Kind, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		switch k {
		case value.Int:
			switch r.Intn(4) {
			case 0:
				out[i] = value.NewInt(int64(r.Intn(5)))
			case 1:
				out[i] = value.NewInt(r.Int63() - r.Int63())
			default:
				out[i] = value.NewInt(int64(i * 3))
			}
		case value.Float:
			switch r.Intn(5) {
			case 0:
				out[i] = value.NewFloat(math.NaN())
			case 1:
				out[i] = value.NewFloat(math.Inf(1))
			default:
				out[i] = value.NewFloat(r.NormFloat64() * 1e3)
			}
		case value.Bool:
			out[i] = value.NewBool(r.Intn(2) == 0)
		case value.Str:
			out[i] = value.NewString(fmt.Sprintf("s%d", r.Intn(6)))
		case value.Bytes:
			b := make([]byte, r.Intn(6))
			r.Read(b)
			out[i] = value.NewBytes(b)
		case value.List:
			out[i] = randList(r, 2)
		}
	}
	return out
}

// randList returns a list of up to three children — small ints, strings,
// nulls and, down to depth, lists — drawn from few values, so a column of
// them repeats.
func randList(r *rand.Rand, depth int) value.Value {
	children := make([]value.Value, r.Intn(4))
	for i := range children {
		switch r.Intn(5) {
		case 0:
			children[i] = value.NullValue()
		case 1:
			children[i] = value.NewString(fmt.Sprintf("s%d", r.Intn(2)))
		case 2:
			if depth > 0 {
				children[i] = randList(r, depth-1)
				continue
			}
			fallthrough
		default:
			children[i] = value.NewInt(int64(r.Intn(3)))
		}
	}
	return value.NewList(children...)
}

// kindsFor lists the kinds a codec accepts.
func kindsFor(name string) []value.Kind {
	switch name {
	case "delta":
		return []value.Kind{value.Int, value.Float}
	case "bitpack":
		return []value.Kind{value.Int}
	default:
		return []value.Kind{value.Int, value.Float, value.Bool, value.Str, value.Bytes, value.List}
	}
}

// TestDecodeVecMatchesBoxed checks the typed decoders against the boxed
// reference decoder for every codec and kind.
func TestDecodeVecMatchesBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kindsFor(name) {
			for _, n := range []int{0, 1, 7, 300} {
				vals := randVals(r, k, n)
				chunk, err := ref(c).Encode(nil, k, vals)
				if err != nil {
					t.Fatalf("%s/%s: encode: %v", name, k, err)
				}
				boxed, err := ref(c).Decode(chunk, k)
				if err != nil {
					t.Fatalf("%s/%s: decode: %v", name, k, err)
				}
				var v vec.Vector
				v.Reset(k)
				if err := DecodeVec(c, chunk, k, &v); err != nil {
					t.Fatalf("%s/%s: DecodeVec: %v", name, k, err)
				}
				if v.Len() != len(boxed) {
					t.Fatalf("%s/%s: vec len %d, boxed len %d", name, k, v.Len(), len(boxed))
				}
				for i := range boxed {
					got, want := v.Value(i), boxed[i]
					// NaN != NaN under Compare? Compare treats NaNs equal;
					// use it as the equality oracle like the scan does.
					if !value.Equal(got, want) {
						t.Fatalf("%s/%s row %d: got %v want %v", name, k, i, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeVecCorruptInputs checks the typed decoders error (rather than
// panic or truncate) on the corrupt inputs the boxed reference rejects.
func TestDecodeVecCorruptInputs(t *testing.T) {
	for _, name := range Names() {
		c, _ := Lookup(name)
		for _, k := range kindsFor(name) {
			vals := randVals(rand.New(rand.NewSource(3)), k, 20)
			chunk, err := ref(c).Encode(nil, k, vals)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 1; cut < len(chunk); cut += 3 {
				truncated := chunk[:len(chunk)-cut]
				_, boxedErr := ref(c).Decode(truncated, k)
				var v vec.Vector
				v.Reset(k)
				vecErr := DecodeVec(c, truncated, k, &v)
				if boxedErr != nil && vecErr == nil && v.Len() == len(vals) {
					t.Fatalf("%s/%s cut=%d: boxed errored (%v), vec decoded fully", name, k, cut, boxedErr)
				}
			}
		}
	}
}

// TestDecodeVecForgedRowCount gives every codec, as every kind it decodes,
// a chunk claiming 1<<60 rows over a one-byte body: an error, never an
// allocation sized by the claim (which used to panic for List columns with
// "makeslice: cap out of range").
func TestDecodeVecForgedRowCount(t *testing.T) {
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kindsFor(name) {
			for _, body := range []byte{0, 1, 0x80} {
				chunk := append(binary.AppendUvarint(nil, 1<<60), body)
				var v vec.Vector
				v.Reset(k)
				if err := DecodeVec(c, chunk, k, &v); err == nil {
					t.Errorf("%s/%s body %#x: forged row count decoded to %d rows", name, k, body, v.Len())
				}
			}
		}
	}
}
