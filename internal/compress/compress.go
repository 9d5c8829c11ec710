// Package compress implements the data-reduction transforms of the storage
// algebra (paper §3.5.2). The paper supports "a wide range of compression
// schemes by producing nestings through user-defined functions" and gives
// delta compression as the worked example:
//
//	∆(N) ≡ [a − b | [a, b] ← [N, [0, n | \n ← N, limit count(N)−1]]]
//
// Codecs here are vector codecs: they encode a block of column values (one
// cell, chunk or page run) into bytes and back. Every codec is lossless.
// The codec registry maps names (as written in algebra expressions, e.g.
// delta[lat](...)) to implementations so layouts can be persisted in the
// catalog and re-instantiated on open.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/value"
)

// Codec encodes and decodes one block of same-kind values.
type Codec interface {
	// Name is the codec's identifier in the algebra grammar and catalog.
	Name() string
	// Encode appends the encoding of vals (all of kind k) to dst.
	Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error)
	// Decode parses one block encoded by Encode.
	Decode(src []byte, k value.Kind) ([]value.Value, error)
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "delta":
		return Delta{}, nil
	case "rle":
		return RLE{}, nil
	case "dict":
		return Dict{}, nil
	case "bitpack":
		return BitPack{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q", name)
}

// Names lists the registered codec names (for the optimizer's search space).
func Names() []string { return []string{"none", "delta", "rle", "dict", "bitpack"} }

// None is the identity codec: values are stored with their plain encoding.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Encode implements Codec.
func (None) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
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
func (None) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad block header")
	}
	off := sz
	out := make([]value.Value, 0, n)
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

// Delta stores the first value raw, the second as a zigzag-varint first
// difference, and the rest as second differences (delta-of-delta).
// Integers difference directly; floats difference their IEEE-754 bit
// patterns. Consecutive GPS readings move by small, near-constant
// increments — the paper's premise ("cars move continuously by small
// increments ... more efficient to store these small increments") — so the
// first differences are small and the second differences are tiny, which is
// exactly what varints reward. Regular timestamps collapse to one byte per
// value. Everything is exact uint64 arithmetic: the codec is lossless for
// every input including NaN and infinities.
type Delta struct{}

// Name implements Codec.
func (Delta) Name() string { return "delta" }

// Encode implements Codec.
func (Delta) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
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
func (Delta) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	if k != value.Int && k != value.Float {
		return nil, fmt.Errorf("compress: delta requires int or float column, got %s", k)
	}
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad delta header")
	}
	off := sz
	out := make([]value.Value, 0, n)
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

// RLE run-length encodes repeated values as (run length, value) pairs. It is
// the natural codec for sorted low-cardinality columns (the paper's fold over
// prejoined data produces exactly such repetition).
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// Encode implements Codec.
func (RLE) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
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
func (RLE) Decode(src []byte, k value.Kind) ([]value.Value, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, fmt.Errorf("compress: bad rle header")
	}
	off := sz
	out := make([]value.Value, 0, n)
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

// Dict dictionary-encodes a block: distinct values are stored once in sorted
// order, then each position stores a varint dictionary index. Best for
// low-cardinality string columns (vehicle IDs, zip codes).
type Dict struct{}

// Name implements Codec.
func (Dict) Name() string { return "dict" }

// Encode implements Codec.
func (Dict) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
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
func (Dict) Decode(src []byte, k value.Kind) ([]value.Value, error) {
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
	out := make([]value.Value, 0, n)
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

// BitPack frame-of-reference bit-packs an integer block: it stores the block
// minimum and then each value's offset from it in the minimal fixed bit
// width. Random access within a block is O(1), which matters for the array
// direct-offsetting the paper discusses in §3.1 (Data Reordering).
type BitPack struct{}

// Name implements Codec.
func (BitPack) Name() string { return "bitpack" }

// Encode implements Codec.
func (BitPack) Encode(dst []byte, k value.Kind, vals []value.Value) ([]byte, error) {
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
func (BitPack) Decode(src []byte, k value.Kind) ([]value.Value, error) {
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
	out := make([]value.Value, 0, n)
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
