package compress

// The typed encoders: each codec encodes a chunk straight from an unboxed
// column vector — no value.Value per cell, except in a List column, whose
// vector holds boxed values. EncodeVec is the single entry point the segment
// writer and the optimizer use. Its bytes are those of the boxed reference
// codecs (internal/oracle), which fixes the equality and order every typed
// encoder follows: value.Compare's (float NaNs equal each other and sort
// first, -0 equals +0, the first value of a run or a dictionary entry is the
// one stored).

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// The typed encoders. They cannot fail: EncodeVec hands them null-free
// vectors of a kind the codec supports.
type (
	int64Encoder interface {
		encodeInt64s(dst []byte, xs []int64) []byte
	}
	float64Encoder interface {
		encodeFloat64s(dst []byte, xs []float64) []byte
	}
	boolEncoder interface {
		encodeBools(dst []byte, xs []int64) []byte
	}
	bytesEncoder interface {
		encodeBytesVec(dst []byte, src *vec.Vector) []byte
	}
	listEncoder interface {
		encodeLists(dst []byte, xs []value.Value) []byte
	}
)

// EncodeVec appends the encoding of src, a column of kind k, to dst through
// c's typed encoder for k. A kind c has no encoder for is refused, and so
// is a column holding a null: chunks store no nulls.
func EncodeVec(c Codec, dst []byte, k value.Kind, src *vec.Vector) ([]byte, error) {
	if src.Nulls.Any() {
		if !encodes(c, k) {
			return nil, errKind(c, k)
		}
		return nil, errNull(c)
	}
	n := src.Len()
	switch k {
	case value.Int:
		if e, ok := c.(int64Encoder); ok {
			return e.encodeInt64s(dst, src.Int64s[:n]), nil
		}
	case value.Float:
		if e, ok := c.(float64Encoder); ok {
			return e.encodeFloat64s(dst, src.Float64s[:n]), nil
		}
	case value.Bool:
		if e, ok := c.(boolEncoder); ok {
			return e.encodeBools(dst, src.Int64s[:n]), nil
		}
	case value.Str, value.Bytes:
		if e, ok := c.(bytesEncoder); ok {
			return e.encodeBytesVec(dst, src), nil
		}
	case value.List:
		if e, ok := c.(listEncoder); ok {
			return e.encodeLists(dst, src.Boxed[:n]), nil
		}
	}
	return nil, errKind(c, k)
}

// encodes reports whether c has a typed encoder for kind k.
func encodes(c Codec, k value.Kind) bool {
	var ok bool
	switch k {
	case value.Int:
		_, ok = c.(int64Encoder)
	case value.Float:
		_, ok = c.(float64Encoder)
	case value.Bool:
		_, ok = c.(boolEncoder)
	case value.Str, value.Bytes:
		_, ok = c.(bytesEncoder)
	case value.List:
		_, ok = c.(listEncoder)
	}
	return ok
}

// errKind is c's refusal of a column kind it has no typed path for.
func errKind(c Codec, k value.Kind) error {
	switch c.(type) {
	case Delta:
		return fmt.Errorf("compress: delta requires int or float column, got %s", k)
	case BitPack:
		return fmt.Errorf("compress: bitpack requires int column, got %s", k)
	}
	return fmt.Errorf("compress: %s has no path for %s columns", c.Name(), k)
}

// errNull is c's refusal of a column holding a null: nulls must be isolated
// (in the segment's null bitmap) before compression.
func errNull(c Codec) error {
	if _, ok := c.(None); ok {
		return fmt.Errorf("compress: null value in block (nulls must be isolated before compression)")
	}
	return fmt.Errorf("compress: null value in %s block", c.Name())
}

// Plain value encodings, as value.AppendValue writes them.

func putInt(dst []byte, x int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(x)) }

func putFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

func putBool(dst []byte, x int64) []byte {
	if x != 0 {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func putBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func putList(dst []byte, x value.Value) []byte { return value.AppendValue(dst, value.List, x) }

// floatEq is value.Equal on two floats.
func floatEq(a, b float64) bool { return value.CompareFloats(a, b) == 0 }

func intEq(a, b int64) bool { return a == b }

// intKey and floatKey map values equal under value.Equal to one dictionary
// key.
func intKey(x int64) uint64 { return uint64(x) }

var floatKey = vec.CanonicalFloatBits

// --- None ---

func (None) encodeInt64s(dst []byte, xs []int64) []byte {
	dst = slices.Grow(binary.AppendUvarint(dst, uint64(len(xs))), 8*len(xs))
	for _, x := range xs {
		dst = putInt(dst, x)
	}
	return dst
}

func (None) encodeFloat64s(dst []byte, xs []float64) []byte {
	dst = slices.Grow(binary.AppendUvarint(dst, uint64(len(xs))), 8*len(xs))
	for _, x := range xs {
		dst = putFloat(dst, x)
	}
	return dst
}

func (None) encodeBools(dst []byte, xs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = putBool(dst, x)
	}
	return dst
}

func (None) encodeBytesVec(dst []byte, src *vec.Vector) []byte {
	dst = binary.AppendUvarint(dst, uint64(src.Len()))
	for i := range src.Len() {
		dst = putBytes(dst, src.BytesAt(i))
	}
	return dst
}

func (None) encodeLists(dst []byte, xs []value.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = putList(dst, x)
	}
	return dst
}

// --- Delta ---

// deltaEncode writes the delta-of-delta stream of typed words: int64s as
// they are, float64s by their IEEE-754 bit pattern.
func deltaEncode[T int64 | float64](dst []byte, xs []T) []byte {
	var zero T
	_, isFloat := any(zero).(float64)
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	var prev, prevDelta uint64
	for i, x := range xs {
		// Only the branch matching T runs; the other exists so both
		// instantiations compile.
		var cur uint64
		if isFloat {
			cur = math.Float64bits(float64(x))
		} else {
			cur = uint64(int64(x))
		}
		switch i {
		case 0:
			dst = binary.LittleEndian.AppendUint64(dst, cur)
		case 1:
			prevDelta = cur - prev
			dst = binary.AppendVarint(dst, int64(prevDelta))
		default:
			delta := cur - prev
			dst = binary.AppendVarint(dst, int64(delta-prevDelta))
			prevDelta = delta
		}
		prev = cur
	}
	return dst
}

func (Delta) encodeInt64s(dst []byte, xs []int64) []byte { return deltaEncode(dst, xs) }

func (Delta) encodeFloat64s(dst []byte, xs []float64) []byte { return deltaEncode(dst, xs) }

// --- RLE ---

// rleEncode writes the row count, then (run length, first value of the run)
// pairs: eq is value.Equal for the kind.
func rleEncode[T any](dst []byte, xs []T, eq func(a, b T) bool, put func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && eq(xs[j], xs[i]) {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = put(dst, xs[i])
		i = j
	}
	return dst
}

func (RLE) encodeInt64s(dst []byte, xs []int64) []byte { return rleEncode(dst, xs, intEq, putInt) }

func (RLE) encodeFloat64s(dst []byte, xs []float64) []byte {
	return rleEncode(dst, xs, floatEq, putFloat)
}

func (RLE) encodeBools(dst []byte, xs []int64) []byte { return rleEncode(dst, xs, intEq, putBool) }

func (RLE) encodeLists(dst []byte, xs []value.Value) []byte {
	return rleEncode(dst, xs, value.Equal, putList)
}

func (RLE) encodeBytesVec(dst []byte, src *vec.Vector) []byte {
	dst = binary.AppendUvarint(dst, uint64(src.Len()))
	for i := 0; i < src.Len(); {
		b := src.BytesAt(i)
		j := i + 1
		for j < src.Len() && bytes.Equal(src.BytesAt(j), b) {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = putBytes(dst, b)
		i = j
	}
	return dst
}

// --- Dict ---

// dictWrite writes a dictionary block: the row count, the distinct values
// sorted by order, then each row's rank. codes[i] indexes distinct, which is
// in first-seen order (so each entry is the first value that named it).
func dictWrite[T any](dst []byte, distinct []T, codes []int32, order func(a, b T) int, put func([]byte, T) []byte) []byte {
	perm := make([]int32, len(distinct))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return order(distinct[a], distinct[b]) })
	rank := make([]uint64, len(distinct))
	for newIdx, oldIdx := range perm {
		rank[oldIdx] = uint64(newIdx)
	}
	dst = binary.AppendUvarint(dst, uint64(len(codes)))
	dst = binary.AppendUvarint(dst, uint64(len(distinct)))
	for _, oldIdx := range perm {
		dst = put(dst, distinct[oldIdx])
	}
	for _, c := range codes {
		dst = binary.AppendUvarint(dst, rank[c])
	}
	return dst
}

// dictEncode is the dictionary encoder over fixed-width values: key maps
// values equal under value.Equal to one map key.
func dictEncode[T int64 | float64](dst []byte, xs []T, key func(T) uint64, order func(a, b T) int, put func([]byte, T) []byte) []byte {
	var distinct []T
	seen := make(map[uint64]int32)
	codes := make([]int32, len(xs))
	for i, x := range xs {
		c, ok := seen[key(x)]
		if !ok {
			c = int32(len(distinct))
			seen[key(x)] = c
			distinct = append(distinct, x)
		}
		codes[i] = c
	}
	return dictWrite(dst, distinct, codes, order, put)
}

func (Dict) encodeInt64s(dst []byte, xs []int64) []byte {
	return dictEncode(dst, xs, intKey, cmp.Compare[int64], putInt)
}

func (Dict) encodeFloat64s(dst []byte, xs []float64) []byte {
	return dictEncode(dst, xs, floatKey, value.CompareFloats, putFloat)
}

func (Dict) encodeBools(dst []byte, xs []int64) []byte {
	return dictEncode(dst, xs, intKey, cmp.Compare[int64], putBool)
}

// encodeLists finds each list's entry through value.Hash, which is
// consistent with value.Equal, and a chain of the entries sharing a hash.
func (Dict) encodeLists(dst []byte, xs []value.Value) []byte {
	var distinct []value.Value
	seen := make(map[uint64][]int32)
	codes := make([]int32, len(xs))
	for i, x := range xs {
		h := x.Hash()
		c := int32(-1)
		for _, e := range seen[h] {
			if value.Equal(distinct[e], x) {
				c = e
				break
			}
		}
		if c < 0 {
			c = int32(len(distinct))
			seen[h] = append(seen[h], c)
			distinct = append(distinct, x)
		}
		codes[i] = c
	}
	return dictWrite(dst, distinct, codes, value.Compare, putList)
}

// encodeBytesVec looks each distinct byte string up once. A dictionary-form
// vector is resolved per entry its rows name, not per row.
func (Dict) encodeBytesVec(dst []byte, src *vec.Vector) []byte {
	var distinct [][]byte
	seen := make(map[string]int32)
	lookup := func(b []byte) int32 {
		c, ok := seen[string(b)]
		if !ok {
			c = int32(len(distinct))
			seen[string(b)] = c
			distinct = append(distinct, b)
		}
		return c
	}
	codes := make([]int32, src.Len())
	if len(src.Codes) != 0 {
		byEntry := make([]int32, src.Entries())
		for e := range byEntry {
			byEntry[e] = -1
		}
		for i, e := range src.Codes {
			if byEntry[e] < 0 {
				byEntry[e] = lookup(src.Entry(int(e)))
			}
			codes[i] = byEntry[e]
		}
	} else {
		for i := range codes {
			codes[i] = lookup(src.BytesAt(i))
		}
	}
	return dictWrite(dst, distinct, codes, bytes.Compare, putBytes)
}

// --- BitPack ---

func (BitPack) encodeInt64s(dst []byte, xs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	if len(xs) == 0 {
		return dst
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	width := 0
	for span := uint64(hi - lo); span>>width != 0; {
		width++
	}
	dst = binary.AppendVarint(dst, lo)
	dst = append(dst, byte(width))
	if width == 0 {
		return dst
	}
	var acc uint64
	bits := 0
	for _, x := range xs {
		acc |= uint64(x-lo) << bits
		bits += width
		for bits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}
