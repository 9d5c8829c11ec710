package oracle

// The boxed codecs: the reference for the chunk format compress writes. Each
// encodes a []value.Value and decodes back to one, value by value, with its
// own header parsing; compress's typed encoders must write these bytes and
// its typed decoders must read them back to these values.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/value"
)

// Codec is a boxed codec over one block of same-kind values.
type Codec interface {
	// Name is the codec's registered name, as compress.Lookup knows it.
	Name() string
	// Encode appends the encoding of vals (all of kind k) to dst.
	Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error)
	// Decode parses one block encoded by Encode.
	Decode(src []byte, k value.Kind) ([]value.Value, error)
}

// LookupCodec returns the reference codec registered under name.
func LookupCodec(name string) (Codec, error) {
	switch name {
	case "none", "":
		return noneCodec{}, nil
	case "delta":
		return deltaCodec{}, nil
	case "rle":
		return rleCodec{}, nil
	case "dict":
		return dictCodec{}, nil
	case "bitpack":
		return bitpackCodec{}, nil
	}
	return nil, fmt.Errorf("oracle: unknown codec %q", name)
}

// noneCodec is compress.None's reference: each value in its plain encoding.
type noneCodec struct{}

// Name implements Codec.
func (noneCodec) Name() string { return "none" }

// Encode implements Codec.
func (noneCodec) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		if v.IsNull() {
			return nil, fmt.Errorf("compress: null value in block (nulls must be isolated before compression)")
		}
		dst = value.AppendValue(dst, k, v)
	}
	return dst, nil
}

// Decode implements Codec.
func (noneCodec) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad block header")
	}
	off := sz
	out := make([]value.Value, 0, min(n, uint64(len(src))))
	for i := uint64(0); i < n; i++ {
		v, used, err := value.DecodeValue(src[off:], k)
		if err != nil {
			return nil, err
		}
		off += used
		out = append(out, v)
	}
	return out, nil
}

// deltaCodec is compress.Delta's reference: the first word raw, the second
// as a first difference, the rest as second differences, all as varints in
// wrapping uint64 arithmetic (floats by their IEEE-754 bits).
type deltaCodec struct{}

// Name implements Codec.
func (deltaCodec) Name() string { return "delta" }

// Encode implements Codec.
func (deltaCodec) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
	if k != value.Int && k != value.Float {
		return nil, fmt.Errorf("compress: delta requires int or float column, got %s", k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	var prev, prevDelta uint64
	for i, v := range vals {
		if v.IsNull() {
			return nil, fmt.Errorf("compress: null value in delta block")
		}
		var cur uint64
		if k == value.Int {
			cur = uint64(v.Int())
		} else {
			cur = math.Float64bits(v.Float())
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
	return dst, nil
}

// Decode implements Codec.
func (deltaCodec) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	if k != value.Int && k != value.Float {
		return nil, fmt.Errorf("compress: delta requires int or float column, got %s", k)
	}
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad delta header")
	}
	off := sz
	out := make([]value.Value, 0, min(n, uint64(len(src))))
	var prev, prevDelta uint64
	for i := uint64(0); i < n; i++ {
		var cur uint64
		switch i {
		case 0:
			if len(src[off:]) < 8 {
				return nil, fmt.Errorf("compress: short delta block")
			}
			cur = binary.LittleEndian.Uint64(src[off:])
			off += 8
		case 1:
			d, used := binary.Varint(src[off:])
			if used <= 0 {
				return nil, fmt.Errorf("compress: bad delta varint")
			}
			off += used
			prevDelta = uint64(d)
			cur = prev + prevDelta
		default:
			dd, used := binary.Varint(src[off:])
			if used <= 0 {
				return nil, fmt.Errorf("compress: bad delta varint")
			}
			off += used
			prevDelta += uint64(dd)
			cur = prev + prevDelta
		}
		prev = cur
		if k == value.Int {
			out = append(out, value.NewInt(int64(cur)))
		} else {
			out = append(out, value.NewFloat(math.Float64frombits(cur)))
		}
	}
	return out, nil
}

// rleCodec is compress.RLE's reference: (run length, first value of the
// run) pairs under value.Equal.
type rleCodec struct{}

// Name implements Codec.
func (rleCodec) Name() string { return "rle" }

// Encode implements Codec.
func (rleCodec) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for i := 0; i < len(vals); {
		if vals[i].IsNull() {
			return nil, fmt.Errorf("compress: null value in rle block")
		}
		j := i + 1
		for j < len(vals) && value.Equal(vals[j], vals[i]) {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = value.AppendValue(dst, k, vals[i])
		i = j
	}
	return dst, nil
}

// Decode implements Codec.
func (rleCodec) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad rle header")
	}
	off := sz
	out := make([]value.Value, 0, min(n, uint64(len(src))))
	for uint64(len(out)) < n {
		run, used := binary.Uvarint(src[off:])
		if used <= 0 {
			return nil, fmt.Errorf("compress: bad rle run length")
		}
		off += used
		v, used2, err := value.DecodeValue(src[off:], k)
		if err != nil {
			return nil, err
		}
		off += used2
		for r := uint64(0); r < run; r++ {
			out = append(out, v)
		}
	}
	if uint64(len(out)) != n {
		return nil, fmt.Errorf("compress: rle runs exceed block size")
	}
	return out, nil
}

// dictCodec is compress.Dict's reference: the distinct values once, sorted
// by value.Compare, then one varint rank per row.
type dictCodec struct{}

// Name implements Codec.
func (dictCodec) Name() string { return "dict" }

// Encode implements Codec.
func (dictCodec) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
	distinct := make([]value.Value, 0)
	seen := make(map[uint64][]int) // hash -> indexes into distinct
	indexOf := func(v value.Value) int {
		h := v.Hash()
		for _, di := range seen[h] {
			if value.Equal(distinct[di], v) {
				return di
			}
		}
		return -1
	}
	for _, v := range vals {
		if v.IsNull() {
			return nil, fmt.Errorf("compress: null value in dict block")
		}
		if indexOf(v) < 0 {
			seen[v.Hash()] = append(seen[v.Hash()], len(distinct))
			distinct = append(distinct, v)
		}
	}
	// Sort the dictionary so equal blocks encode identically and decoded
	// dictionaries support binary search.
	perm := make([]int, len(distinct))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		return value.Compare(distinct[perm[a]], distinct[perm[b]]) < 0
	})
	sorted := make([]value.Value, len(distinct))
	rank := make([]int, len(distinct))
	for newIdx, oldIdx := range perm {
		sorted[newIdx] = distinct[oldIdx]
		rank[oldIdx] = newIdx
	}

	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	dst = binary.AppendUvarint(dst, uint64(len(sorted)))
	for _, v := range sorted {
		dst = value.AppendValue(dst, k, v)
	}
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(rank[indexOf(v)]))
	}
	return dst, nil
}

// Decode implements Codec.
func (dictCodec) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return nil, err
	}
	dict := make([]value.Value, 0, nd)
	for i := uint64(0); i < nd; i++ {
		v, used, err := value.DecodeValue(src[off:], k)
		if err != nil {
			return nil, err
		}
		off += used
		dict = append(dict, v)
	}
	out := make([]value.Value, 0, min(n, uint64(len(src))))
	for i := uint64(0); i < n; i++ {
		idx, used := binary.Uvarint(src[off:])
		if used <= 0 || idx >= uint64(len(dict)) {
			return nil, fmt.Errorf("compress: bad dict index")
		}
		off += used
		out = append(out, dict[idx])
	}
	return out, nil
}

// dictHeader parses the row and dictionary counts and returns the offset of
// the dictionary values, refusing counts the rest of the chunk cannot hold
// (an entry and a code take at least one byte each).
func dictHeader(src []byte) (n, nd uint64, off int, err error) {
	n, off = binary.Uvarint(src)
	if off <= 0 {
		return 0, 0, 0, fmt.Errorf("compress: bad dict header")
	}
	nd, sz := binary.Uvarint(src[off:])
	if sz <= 0 {
		return 0, 0, 0, fmt.Errorf("compress: bad dict size")
	}
	off += sz
	if rest := uint64(len(src) - off); nd > rest || n > rest-nd {
		return 0, 0, 0, fmt.Errorf("compress: short dict block")
	}
	return n, nd, off, nil
}

// bitpackCodec is compress.BitPack's reference: the block minimum, then
// each value's offset from it in the minimal fixed bit width.
type bitpackCodec struct{}

// Name implements Codec.
func (bitpackCodec) Name() string { return "bitpack" }

// Encode implements Codec.
func (bitpackCodec) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
	if k != value.Int {
		return nil, fmt.Errorf("compress: bitpack requires int column, got %s", k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst, nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range vals {
		if v.IsNull() {
			return nil, fmt.Errorf("compress: null value in bitpack block")
		}
		lo, hi = min(lo, v.Int()), max(hi, v.Int())
	}
	span := uint64(hi - lo)
	width := 0
	for span>>width != 0 {
		width++
	}
	dst = binary.AppendVarint(dst, lo)
	dst = append(dst, byte(width))
	if width == 0 {
		return dst, nil
	}
	var acc uint64
	bits := 0
	for _, v := range vals {
		acc |= uint64(v.Int()-lo) << bits
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
	return dst, nil
}

// Decode implements Codec.
func (bitpackCodec) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	if k != value.Int {
		return nil, fmt.Errorf("compress: bitpack requires int column, got %s", k)
	}
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad bitpack header")
	}
	off := sz
	if n == 0 {
		return []value.Value{}, nil
	}
	lo, used := binary.Varint(src[off:])
	if used <= 0 {
		return nil, fmt.Errorf("compress: bad bitpack base")
	}
	off += used
	if off >= len(src) {
		return nil, fmt.Errorf("compress: short bitpack block")
	}
	width := int(src[off])
	off++
	out := make([]value.Value, 0, min(n, uint64(len(src))))
	if width == 0 {
		for i := uint64(0); i < n; i++ {
			out = append(out, value.NewInt(lo))
		}
		return out, nil
	}
	var acc uint64
	bits := 0
	mask := uint64(1)<<width - 1
	for i := uint64(0); i < n; i++ {
		for bits < width {
			if off >= len(src) {
				return nil, fmt.Errorf("compress: short bitpack block")
			}
			acc |= uint64(src[off]) << bits
			off++
			bits += 8
		}
		out = append(out, value.NewInt(lo+int64(acc&mask)))
		acc >>= width
		bits -= width
	}
	return out, nil
}
