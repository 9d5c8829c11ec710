package compress

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// encodeKinds are the column kinds EncodeVec is held to the reference
// encoder over; the codecs that refuse one refuse it through both alike.
var encodeKinds = []value.Kind{value.Int, value.Float, value.Bool, value.Str, value.Bytes, value.List}

// vectorOf builds the column a segment writer would encode for the boxed
// vals: Int values of a Float column widened, nulls in the bitmap. With
// dictForm a Str/Bytes column comes out in dictionary form, its entries in
// reverse first-seen order with one entry no row names, as a decoded
// dict[...] chunk gathered under a selection can be.
func vectorOf(t testing.TB, k value.Kind, vals []value.Value, dictForm bool) *vec.Vector {
	t.Helper()
	v := &vec.Vector{}
	v.Reset(k)
	for _, x := range vals {
		if err := v.AppendValue(x); err != nil {
			t.Fatal(err)
		}
	}
	if !dictForm || (k != value.Str && k != value.Bytes) {
		return v
	}
	var entries [][]byte
	for i := range vals {
		if !v.IsNull(i) && !slices.ContainsFunc(entries, func(e []byte) bool { return bytes.Equal(e, v.BytesAt(i)) }) {
			entries = append(entries, v.BytesAt(i))
		}
	}
	entries = append(entries, []byte("unnamed"))
	slices.Reverse(entries)
	d := &vec.Vector{}
	d.Reset(k)
	d.Offs = append(d.Offs, 0)
	for _, e := range entries {
		d.Data = append(d.Data, e...)
		d.Offs = append(d.Offs, uint64(len(d.Data)))
	}
	for i := range vals {
		code := 0 // a null row's code is any entry
		if !v.IsNull(i) {
			code = slices.IndexFunc(entries, func(e []byte) bool { return bytes.Equal(e, v.BytesAt(i)) })
		}
		d.Codes = append(d.Codes, uint32(code))
		if v.IsNull(i) {
			d.Nulls.Set(i)
		}
	}
	d.SyncLen()
	if len(vals) == 0 {
		return v // an empty column has no dictionary form
	}
	return d
}

// encodeBothWays encodes vals through the boxed reference encoder and, as a
// vector, through EncodeVec, each appending to the same prefix, and requires
// one verdict: the same error, or the same bytes.
func encodeBothWays(t testing.TB, c Codec, k value.Kind, vals []value.Value, dictForm bool) {
	t.Helper()
	prefix := []byte{0xAB, 0xCD}
	want, wantErr := ref(c).Encode(slices.Clone(prefix), k, vals)
	got, gotErr := EncodeVec(c, slices.Clone(prefix), k, vectorOf(t, k, vals, dictForm))
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s/%s (dict form %v) over %v: Encode error %v, EncodeVec error %v", c.Name(), k, dictForm, vals, wantErr, gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%s (dict form %v) over %v:\nEncodeVec %x\nEncode    %x", c.Name(), k, dictForm, vals, got, want)
	}
}

// edgeVals draws n values of kind k weighted toward what codecs get wrong:
// repeats (runs, shared dictionary entries), extremes, NaNs of several
// payloads and signs, both zeros, infinities, empty strings and — in a Float
// column — Int values, which a Float column accepts and widens.
func edgeVals(r *rand.Rand, k value.Kind, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		if i > 0 && r.Intn(3) == 0 {
			out[i] = out[i-1]
			continue
		}
		switch k {
		case value.Int:
			out[i] = value.NewInt([]int64{0, -1, 1, math.MinInt64, math.MaxInt64, int64(r.Intn(5)), r.Int63() - r.Int63()}[r.Intn(7)])
		case value.Float:
			switch r.Intn(4) {
			case 0:
				out[i] = value.NewFloat([]float64{
					math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000001),
					0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
				}[r.Intn(9)])
			case 1:
				out[i] = value.NewInt(int64(r.Intn(7)) - 3)
			default:
				out[i] = value.NewFloat(float64(r.Intn(5)) + []float64{0, 0.5, -1e-300}[r.Intn(3)])
			}
		case value.Bool:
			out[i] = value.NewBool(r.Intn(2) == 0)
		case value.Str:
			out[i] = value.NewString([]string{"", "a", "b", "ab", "\x00", "zz"}[r.Intn(6)])
		case value.Bytes:
			out[i] = value.NewBytes([]byte([]string{"", "a", "b", "ab", "\xff", "zz"}[r.Intn(6)]))
		case value.List:
			out[i] = edgeList(r, 2)
		}
	}
	return out
}

// edgeList draws a list of up to two children whose values tie under
// value.Equal in different bytes — Int and Float ones and zeros, both
// zeros, NaN — beside nulls, bools, strings and, down to depth, lists.
func edgeList(r *rand.Rand, depth int) value.Value {
	children := make([]value.Value, r.Intn(3))
	for i := range children {
		switch r.Intn(6) {
		case 0:
			children[i] = value.NullValue()
		case 1:
			children[i] = value.NewInt(int64(r.Intn(2)))
		case 2:
			children[i] = value.NewFloat([]float64{0, math.Copysign(0, -1), 1, math.NaN()}[r.Intn(4)])
		case 3:
			children[i] = value.NewString([]string{"", "a"}[r.Intn(2)])
		case 4:
			children[i] = value.NewBool(r.Intn(2) == 0)
		default:
			if depth > 0 {
				children[i] = edgeList(r, depth-1)
			}
		}
	}
	return value.NewList(children...)
}

// TestEncodeVecMatchesEncode is the encoder oracle: for every codec and
// kind, EncodeVec over a vector appends exactly the bytes the reference
// encoder appends over the boxed values, flat or dictionary form, and
// refuses what it refuses (a null row, a kind the codec cannot store) with
// the same error.
func TestEncodeVecMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range encodeKinds {
			for _, n := range []int{0, 1, 2, 5, 64, 300} {
				for round := 0; round < 4; round++ {
					vals := edgeVals(r, k, n)
					if round == 3 && n > 0 {
						vals[r.Intn(n)] = value.NullValue()
					}
					encodeBothWays(t, c, k, vals, false)
					encodeBothWays(t, c, k, vals, true)
				}
			}
		}
	}
}

// FuzzEncodeVec reads a codec, a column kind, a dictionary-form switch and
// the column's values out of arbitrary bytes, and requires EncodeVec and the
// reference encoder to agree on them.
func FuzzEncodeVec(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for ci := range Names() {
		for ki, k := range encodeKinds {
			var data []byte
			for _, v := range edgeVals(r, k, 12) {
				data = appendFuzzValue(data, v)
			}
			f.Add(uint8(ci), uint8(ki), ki%2 == 0, data)
		}
	}
	f.Fuzz(func(t *testing.T, codec, kind uint8, dictForm bool, data []byte) {
		c, err := Lookup(Names()[int(codec)%len(Names())])
		if err != nil {
			t.Fatal(err)
		}
		k := encodeKinds[int(kind)%len(encodeKinds)]
		encodeBothWays(t, c, k, fuzzValues(k, data), dictForm)
	})
}

// appendFuzzValue and fuzzValues are the fuzz input's value stream: one tag
// byte per value (0 null, 1 an Int in a Float column, else the kind's own),
// then its plain encoding.
func appendFuzzValue(data []byte, v value.Value) []byte {
	switch {
	case v.IsNull():
		return append(data, 0)
	case v.Kind() == value.Int:
		return value.AppendValue(append(data, 1), value.Int, v)
	default:
		return value.AppendValue(append(data, 2), v.Kind(), v)
	}
}

func fuzzValues(k value.Kind, data []byte) []value.Value {
	var out []value.Value
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		if tag == 0 {
			out = append(out, value.NullValue())
			continue
		}
		as := k
		if tag == 1 && k == value.Float {
			as = value.Int
		}
		v, used, err := value.DecodeValue(data, as)
		if err != nil {
			return out
		}
		data = data[used:]
		if as == value.Int && k == value.Float && math.Abs(float64(v.Int())) > 1<<53 {
			// Beyond 2^53 two Ints the reference keeps apart widen to one
			// float; the Float column holds the widened value.
			v = value.NewFloat(float64(v.Int()))
		}
		out = append(out, v)
	}
	return out
}
