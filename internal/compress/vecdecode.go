package compress

// The typed decoders: each codec decodes a chunk straight into an unboxed
// column vector — no value.Value allocation per cell, except in a List
// column, whose vector holds boxed values. DecodeVec is the single entry
// point the segment reader uses; it dispatches to the codec's decoder for
// the column kind and refuses a kind the codec has none for. Every count a
// chunk header claims is checked against the bytes left before anything is
// sized by it, so forged or damaged chunks are errors, never panics.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Int64Decoder is the typed decoder for Int columns.
type Int64Decoder interface {
	// DecodeInt64s appends the chunk's values to dst.
	DecodeInt64s(src []byte, dst []int64) ([]int64, error)
}

// Float64Decoder is the typed decoder for Float columns.
type Float64Decoder interface {
	// DecodeFloat64s appends the chunk's values to dst.
	DecodeFloat64s(src []byte, dst []float64) ([]float64, error)
}

// BoolDecoder is the typed decoder for Bool columns (0/1 into int64s).
type BoolDecoder interface {
	// DecodeBools appends the chunk's values to dst as 0/1.
	DecodeBools(src []byte, dst []int64) ([]int64, error)
}

// BytesDecoder is the typed decoder for Str and Bytes columns: values go
// into the vector's byte arena without string allocation.
type BytesDecoder interface {
	// DecodeBytesVec decodes the chunk's values into dst, which holds no
	// rows yet (a codec may leave it in dictionary form).
	DecodeBytesVec(src []byte, dst *vec.Vector) error
}

// ListDecoder is the typed decoder for List columns (the nestings a fold
// produces), whose vectors hold boxed values.
type ListDecoder interface {
	// DecodeLists appends the chunk's values to dst.
	DecodeLists(src []byte, dst []value.Value) ([]value.Value, error)
}

// DecodeVec decodes one chunk of kind k into dst, which must have been
// Reset(k), through c's typed decoder for k. A kind c has no decoder for is
// refused.
func DecodeVec(c Codec, src []byte, k value.Kind, dst *vec.Vector) error {
	switch k {
	case value.Int:
		if d, ok := c.(Int64Decoder); ok {
			out, err := d.DecodeInt64s(src, dst.Int64s[:0])
			if err != nil {
				return err
			}
			dst.Int64s = out
			dst.SyncLen()
			return nil
		}
	case value.Float:
		if d, ok := c.(Float64Decoder); ok {
			out, err := d.DecodeFloat64s(src, dst.Float64s[:0])
			if err != nil {
				return err
			}
			dst.Float64s = out
			dst.SyncLen()
			return nil
		}
	case value.Bool:
		if d, ok := c.(BoolDecoder); ok {
			out, err := d.DecodeBools(src, dst.Int64s[:0])
			if err != nil {
				return err
			}
			dst.Int64s = out
			dst.SyncLen()
			return nil
		}
	case value.Str, value.Bytes:
		if d, ok := c.(BytesDecoder); ok {
			return d.DecodeBytesVec(src, dst)
		}
	case value.List:
		if d, ok := c.(ListDecoder); ok {
			out, err := d.DecodeLists(src, dst.Boxed[:0])
			if err != nil {
				return err
			}
			dst.Boxed = out
			dst.SyncLen()
			return nil
		}
	}
	return errKind(c, k)
}

// chunkHeader parses the leading uvarint row count shared by every codec.
func chunkHeader(src []byte) (n uint64, off int, err error) {
	n, off = binary.Uvarint(src)
	if off <= 0 {
		return 0, 0, fmt.Errorf("compress: bad block header")
	}
	return n, off, nil
}

// extend grows dst by n elements in one step and returns it with the new
// tail, which a decoder that has validated n fills by index.
func extend[T any](dst []T, n int) (all, tail []T) {
	all = slices.Grow(dst, n)[:len(dst)+n]
	return all, all[len(dst):]
}

// --- None ---

// DecodeInt64s implements Int64Decoder.
func (None) DecodeInt64s(src []byte, dst []int64) ([]int64, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(src)-off)/8 < n {
		return nil, fmt.Errorf("compress: short int block")
	}
	dst, out := extend(dst, int(n))
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[off+8*i:]))
	}
	return dst, nil
}

// DecodeFloat64s implements Float64Decoder.
func (None) DecodeFloat64s(src []byte, dst []float64) ([]float64, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(src)-off)/8 < n {
		return nil, fmt.Errorf("compress: short float block")
	}
	dst, out := extend(dst, int(n))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off+8*i:]))
	}
	return dst, nil
}

// DecodeBools implements BoolDecoder.
func (None) DecodeBools(src []byte, dst []int64) ([]int64, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(src)-off) < n {
		return nil, fmt.Errorf("compress: short bool block")
	}
	for i := uint64(0); i < n; i++ {
		var x int64
		if src[off] != 0 {
			x = 1
		}
		dst = append(dst, x)
		off++
	}
	return dst, nil
}

// DecodeBytesVec implements BytesDecoder.
func (None) DecodeBytesVec(src []byte, dst *vec.Vector) error {
	n, off, err := chunkHeader(src)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(src[off:])
		if sz <= 0 || uint64(len(src)-off-sz) < l {
			return fmt.Errorf("compress: short byte block")
		}
		off += sz
		dst.AppendBytes(src[off : off+int(l)])
		off += int(l)
	}
	return nil
}

// DecodeLists implements ListDecoder.
func (None) DecodeLists(src []byte, dst []value.Value) ([]value.Value, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, err
	}
	// A list takes at least the byte of its child count.
	if uint64(len(src)-off) < n {
		return nil, fmt.Errorf("compress: short list block")
	}
	dst, out := extend(dst, int(n))
	for i := range out {
		v, used, err := value.DecodeValue(src[off:], value.List)
		if err != nil {
			return nil, err
		}
		out[i] = v
		off += used
	}
	return dst, nil
}

// --- Delta ---

// deltaDecode appends the chunk's delta-of-delta stream to dst: the first
// word raw, the second as a first difference, the rest as second
// differences, all in wrapping uint64 arithmetic. Words become int64s as
// they are and float64s by their IEEE-754 bit pattern.
func deltaDecode[T int64 | float64](src []byte, dst []T) ([]T, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, fmt.Errorf("compress: bad delta header")
	}
	if n == 0 {
		return dst, nil
	}
	// The first word takes eight bytes and every later one at least one.
	if len(src)-off < 8 || uint64(len(src)-off-8) < n-1 {
		return nil, fmt.Errorf("compress: short delta block")
	}
	var zero T
	_, isFloat := any(zero).(float64)
	dst, out := extend(dst, int(n))
	cur := binary.LittleEndian.Uint64(src[off:])
	off += 8
	var delta uint64
	for i := range out {
		if i > 0 {
			// Regular series have one-byte second differences: decode
			// that case in line, everything else through binary.Varint.
			var dd int64
			if off < len(src) && src[off] < 0x80 {
				dd = int64(src[off]>>1) ^ -int64(src[off]&1)
				off++
			} else {
				var used int
				dd, used = binary.Varint(src[off:])
				if used <= 0 {
					return nil, fmt.Errorf("compress: bad delta varint")
				}
				off += used
			}
			delta += uint64(dd) // at i == 1 the stored value is the delta itself
			cur += delta
		}
		// Only the branch matching T runs; the other converts numerically
		// and exists so both instantiations compile.
		if isFloat {
			out[i] = T(math.Float64frombits(cur))
		} else {
			out[i] = T(int64(cur))
		}
	}
	return dst, nil
}

// DecodeInt64s implements Int64Decoder.
func (Delta) DecodeInt64s(src []byte, dst []int64) ([]int64, error) {
	return deltaDecode(src, dst)
}

// DecodeFloat64s implements Float64Decoder.
func (Delta) DecodeFloat64s(src []byte, dst []float64) ([]float64, error) {
	return deltaDecode(src, dst)
}

// --- RLE ---

// rleRuns decodes the run stream, calling emit(value bytes, run length).
// The value bytes are the plain encoding of one value of kind k.
func rleRuns(src []byte, k value.Kind, emit func([]byte, uint64) error) error {
	n, off, err := chunkHeader(src)
	if err != nil {
		return fmt.Errorf("compress: bad rle header")
	}
	var total uint64
	for total < n {
		run, used := binary.Uvarint(src[off:])
		if used <= 0 {
			return fmt.Errorf("compress: bad rle run length")
		}
		off += used
		var vlen int
		switch k {
		case value.Int, value.Float:
			vlen = 8
		case value.Bool:
			vlen = 1
		case value.Str, value.Bytes:
			l, sz := binary.Uvarint(src[off:])
			if sz <= 0 {
				return fmt.Errorf("compress: bad rle value")
			}
			vlen = sz + int(l)
		default:
			return fmt.Errorf("compress: rle typed decode unsupported for %s", k)
		}
		if off+vlen > len(src) {
			return fmt.Errorf("compress: short rle block")
		}
		if err := emit(src[off:off+vlen], run); err != nil {
			return err
		}
		off += vlen
		total += run
	}
	if total != n {
		return fmt.Errorf("compress: rle runs exceed block size")
	}
	return nil
}

// DecodeInt64s implements Int64Decoder.
func (RLE) DecodeInt64s(src []byte, dst []int64) ([]int64, error) {
	err := rleRuns(src, value.Int, func(b []byte, run uint64) error {
		x := int64(binary.LittleEndian.Uint64(b))
		for r := uint64(0); r < run; r++ {
			dst = append(dst, x)
		}
		return nil
	})
	return dst, err
}

// DecodeFloat64s implements Float64Decoder.
func (RLE) DecodeFloat64s(src []byte, dst []float64) ([]float64, error) {
	err := rleRuns(src, value.Float, func(b []byte, run uint64) error {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b))
		for r := uint64(0); r < run; r++ {
			dst = append(dst, x)
		}
		return nil
	})
	return dst, err
}

// DecodeBools implements BoolDecoder.
func (RLE) DecodeBools(src []byte, dst []int64) ([]int64, error) {
	err := rleRuns(src, value.Bool, func(b []byte, run uint64) error {
		var x int64
		if b[0] != 0 {
			x = 1
		}
		for r := uint64(0); r < run; r++ {
			dst = append(dst, x)
		}
		return nil
	})
	return dst, err
}

// DecodeBytesVec implements BytesDecoder.
func (RLE) DecodeBytesVec(src []byte, dst *vec.Vector) error {
	return rleRuns(src, value.Str, func(b []byte, run uint64) error {
		l, sz := binary.Uvarint(b)
		payload := b[sz : sz+int(l)]
		for r := uint64(0); r < run; r++ {
			dst.AppendBytes(payload)
		}
		return nil
	})
}

// DecodeLists implements ListDecoder. It walks the runs as rleRuns does,
// decoding each run's list once; a run longer than the rows left is refused
// before it is appended.
func (RLE) DecodeLists(src []byte, dst []value.Value) ([]value.Value, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, fmt.Errorf("compress: bad rle header")
	}
	for total := uint64(0); total < n; {
		run, used := binary.Uvarint(src[off:])
		if used <= 0 {
			return nil, fmt.Errorf("compress: bad rle run length")
		}
		off += used
		if run > n-total {
			return nil, fmt.Errorf("compress: rle runs exceed block size")
		}
		v, used, err := value.DecodeValue(src[off:], value.List)
		if err != nil {
			return nil, err
		}
		off += used
		for r := uint64(0); r < run; r++ {
			dst = append(dst, v)
		}
		total += run
	}
	return dst, nil
}

// --- Dict ---

// dictHeader parses the row and dictionary counts and returns the offset of
// the dictionary values. A dictionary entry and a code take at least one
// byte each, so counts the rest of the chunk cannot hold are rejected here,
// before any decoder sizes an allocation from them.
func dictHeader(src []byte) (n, nd uint64, off int, err error) {
	n, off, err = chunkHeader(src)
	if err != nil {
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

// DecodeInt64s implements Int64Decoder.
func (Dict) DecodeInt64s(src []byte, dst []int64) ([]int64, error) {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(src)-off)/8 < nd {
		return nil, fmt.Errorf("compress: short dict block")
	}
	dict := make([]int64, nd)
	for i := range dict {
		dict[i] = int64(binary.LittleEndian.Uint64(src[off:]))
		off += 8
	}
	return dictGather(src[off:], n, dict, dst)
}

// DecodeFloat64s implements Float64Decoder.
func (Dict) DecodeFloat64s(src []byte, dst []float64) ([]float64, error) {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return nil, err
	}
	if uint64(len(src)-off)/8 < nd {
		return nil, fmt.Errorf("compress: short dict block")
	}
	dict := make([]float64, nd)
	for i := range dict {
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		off += 8
	}
	return dictGather(src[off:], n, dict, dst)
}

// DecodeBools implements BoolDecoder. An entry is one byte, and dictHeader
// has checked the chunk holds nd of them.
func (Dict) DecodeBools(src []byte, dst []int64) ([]int64, error) {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return nil, err
	}
	dict := make([]int64, nd)
	for i := range dict {
		if src[off+i] != 0 {
			dict[i] = 1
		}
	}
	return dictGather(src[off+int(nd):], n, dict, dst)
}

// DecodeLists implements ListDecoder. Rows naming one entry share its
// decoded list.
func (Dict) DecodeLists(src []byte, dst []value.Value) ([]value.Value, error) {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return nil, err
	}
	dict := make([]value.Value, nd)
	for i := range dict {
		v, used, err := value.DecodeValue(src[off:], value.List)
		if err != nil {
			return nil, err
		}
		dict[i] = v
		off += used
	}
	return dictGather(src[off:], n, dict, dst)
}

// dictGather appends dict[index] for each of the n uvarint indexes in src.
func dictGather[T any](src []byte, n uint64, dict []T, dst []T) ([]T, error) {
	off := 0
	for i := uint64(0); i < n; i++ {
		idx, used := binary.Uvarint(src[off:])
		if used <= 0 || idx >= uint64(len(dict)) {
			return nil, fmt.Errorf("compress: bad dict index")
		}
		off += used
		dst = append(dst, dict[idx])
	}
	return dst, nil
}

// DecodeBytesVec implements BytesDecoder. The vector comes out in
// dictionary form — the chunk's nd entries copied into the arena once and n
// codes — so nothing downstream pays per row for what the encoder already
// found out per distinct value.
func (Dict) DecodeBytesVec(src []byte, dst *vec.Vector) error {
	n, nd, off, err := dictHeader(src)
	if err != nil {
		return err
	}
	dst.Data = dst.Data[:0]
	dst.Offs = append(dst.Offs[:0], 0)
	for e := uint64(0); e < nd; e++ {
		l, sz := binary.Uvarint(src[off:])
		if sz <= 0 || uint64(len(src)-off-sz) < l {
			return fmt.Errorf("compress: short dict block")
		}
		off += sz
		dst.Data = append(dst.Data, src[off:off+int(l)]...)
		dst.Offs = append(dst.Offs, uint64(len(dst.Data)))
		off += int(l)
	}
	all, codes := extend(dst.Codes[:0], int(n))
	for i := range codes {
		var idx uint64
		if off < len(src) && src[off] < 0x80 {
			idx = uint64(src[off])
			off++
		} else {
			var used int
			idx, used = binary.Uvarint(src[off:])
			if used <= 0 {
				return fmt.Errorf("compress: bad dict index")
			}
			off += used
		}
		if idx >= nd {
			return fmt.Errorf("compress: bad dict index")
		}
		codes[i] = uint32(idx)
	}
	dst.Codes = all
	if n == 0 {
		// No rows: an empty column, not a dictionary nobody names.
		dst.Data, dst.Offs = dst.Data[:0], dst.Offs[:0]
	}
	dst.SyncLen()
	return nil
}

// --- BitPack ---

// DecodeInt64s implements Int64Decoder.
func (BitPack) DecodeInt64s(src []byte, dst []int64) ([]int64, error) {
	n, off, err := chunkHeader(src)
	if err != nil {
		return nil, fmt.Errorf("compress: bad bitpack header")
	}
	if n == 0 {
		return dst, nil
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
	if width == 0 {
		for i := uint64(0); i < n; i++ {
			dst = append(dst, lo)
		}
		return dst, nil
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
		dst = append(dst, lo+int64(acc&mask))
		acc >>= width
		bits -= width
	}
	return dst, nil
}
