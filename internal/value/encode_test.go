package value

import (
	"math/rand"
	"testing"
)

func TestValueEncodeRoundtrip(t *testing.T) {
	cases := []struct {
		k Kind
		v Value
	}{
		{Int, NewInt(0)},
		{Int, NewInt(-1)},
		{Int, NewInt(1 << 62)},
		{Float, NewFloat(3.14159)},
		{Float, NewFloat(-0.0)},
		{Bool, NewBool(true)},
		{Bool, NewBool(false)},
		{Str, NewString("")},
		{Str, NewString("hello, 世界")},
		{Bytes, NewBytes([]byte{0, 1, 2, 255})},
		{List, NewList(NewInt(1), NewString("x"), NewList(NewFloat(2.5)))},
		{List, NewList()},
	}
	for i, c := range cases {
		buf := AppendValue(nil, c.k, c.v)
		got, n, err := DecodeValue(buf, c.k)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !Equal(got, c.v) {
			t.Errorf("case %d: roundtrip %v -> %v", i, c.v, got)
		}
	}
}

func TestDecodeValueShortBuffer(t *testing.T) {
	for _, k := range []Kind{Int, Float, Bool, Str, Bytes} {
		if _, _, err := DecodeValue(nil, k); err == nil {
			t.Errorf("kind %s: expected error on empty buffer", k)
		}
	}
	// String claiming more bytes than available.
	buf := AppendValue(nil, Str, NewString("hello"))
	if _, _, err := DecodeValue(buf[:3], Str); err == nil {
		t.Error("expected error on truncated string")
	}
}

// TestDecodeValueTruncated checks that no strict prefix of an encoding
// decodes: a short buffer is an error, never a shorter value.
func TestDecodeValueTruncated(t *testing.T) {
	cases := []struct {
		k Kind
		v Value
	}{
		{Int, NewInt(-7)},
		{Float, NewFloat(2.5)},
		{Bool, NewBool(true)},
		{Str, NewString("hello")},
		{Bytes, NewBytes([]byte{1, 2, 3})},
		{List, NewList(NewInt(1), NewString("x"), NewList(NewBool(false)))},
	}
	for _, c := range cases {
		t.Run(c.k.String(), func(t *testing.T) {
			buf := AppendValue(nil, c.k, c.v)
			for n := 0; n < len(buf); n++ {
				if v, _, err := DecodeValue(buf[:n], c.k); err == nil {
					t.Errorf("%d of %d bytes decoded to %v", n, len(buf), v)
				}
			}
		})
	}
}

func TestEncodedValueFuzzRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 2)
		k := v.Kind()
		if k == Null {
			continue // null encodes via the row bitmap, not standalone
		}
		buf := AppendValue(nil, k, v)
		got, n, err := DecodeValue(buf, k)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", i, k, err)
		}
		if n != len(buf) || !Equal(got, v) {
			t.Fatalf("iter %d: roundtrip mismatch %v -> %v", i, v, got)
		}
	}
}
