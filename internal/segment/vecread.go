package segment

// Block reads: View fetches one block's bytes (a single range read) and
// exposes the column chunks for lazy per-column typed decoding. It is the
// one block parser: scans, folds and CheckIntegrity all decode through it.
// The scan layer uses it for late materialization — decode predicate
// columns, filter, and only then decode the projected columns, or skip them
// entirely when no row survives.
//
// The view and the reader's raw buffer are reused across calls: a view (and
// any chunk slices it handed out) is valid only until the next View call on
// the same reader. Decoded vectors copy out of the raw buffer, so batches
// outlive the view.

import (
	"encoding/binary"
	"fmt"

	"rodentstore/internal/compress"
	"rodentstore/internal/vec"
)

// BlockView is one fetched block, ready for per-column decode.
type BlockView struct {
	r      *Reader
	idx    int
	nrows  int
	chunks [][]byte // per spec column, aliasing the reader's raw buffer
}

// View fetches block i (one contiguous range read) and parses its chunk
// directory. The returned view aliases the reader's reusable buffer: it is
// invalidated by the next View on this reader.
func (r *Reader) View(i int) (*BlockView, error) {
	if i < 0 || i >= len(r.meta.Blocks) {
		return nil, fmt.Errorf("segment: block %d out of range", i)
	}
	bm := r.meta.Blocks[i]
	raw, err := r.readRangeInto(r.rawBuf[:0], bm.Off, bm.Len)
	if err != nil {
		return nil, err
	}
	r.rawBuf = raw
	if len(raw) < 12 {
		return nil, r.corrupt(i, fmt.Errorf("block truncated"))
	}
	bodyLen := binary.LittleEndian.Uint32(raw)
	if uint32(len(raw)) < 4+bodyLen {
		return nil, r.corrupt(i, fmt.Errorf("short body"))
	}
	body := raw[4 : 4+bodyLen]
	if len(body) < 9 {
		return nil, r.corrupt(i, fmt.Errorf("corrupt block header"))
	}
	nrows, sz := binary.Uvarint(body[8:]) // after the u64 cell
	if sz <= 0 {
		return nil, r.corrupt(i, fmt.Errorf("bad row count"))
	}
	// Block metadata is the authoritative row count: a chunk that decodes to
	// a different length is corruption, caught in DecodeCol.
	if int64(nrows) != int64(bm.Rows) {
		return nil, r.corrupt(i, fmt.Errorf("block holds %d rows, metadata says %d", nrows, bm.Rows))
	}
	off := 8 + sz
	bv := &r.view
	bv.r, bv.idx, bv.nrows = r, i, int(nrows)
	bv.chunks = bv.chunks[:0]
	for c := range r.spec.Fields {
		if off+4 > len(body) {
			return nil, r.corrupt(i, fmt.Errorf("truncated at column %d", c))
		}
		chunkLen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if off+int(chunkLen) > len(body) {
			return nil, r.corrupt(i, fmt.Errorf("column %d overruns body", c))
		}
		bv.chunks = append(bv.chunks, body[off:off+int(chunkLen)])
		off += int(chunkLen)
	}
	return bv, nil
}

// Rows returns the block's row count (from segment metadata).
func (bv *BlockView) Rows() int { return bv.nrows }

// Chunk returns column c's encoded chunk, aliasing the reader's buffer (valid
// until the next View), for decoders other than DecodeCol.
func (bv *BlockView) Chunk(c int) []byte { return bv.chunks[c] }

// DecodeCol decodes column c into dst (which is Reset first) through the
// codec's typed decoder for the field's kind. The decoded length is checked
// against the block's metadata row count.
func (bv *BlockView) DecodeCol(c int, dst *vec.Vector) error {
	if c < 0 || c >= len(bv.chunks) {
		return fmt.Errorf("segment: column %d out of range", c)
	}
	r := bv.r
	dst.Reset(r.spec.Fields[c].Type)
	if err := compress.DecodeVec(r.codecs[c], bv.chunks[c], r.spec.Fields[c].Type, dst); err != nil {
		return r.corrupt(bv.idx, fmt.Errorf("field %q: %w", r.spec.Fields[c].Name, err))
	}
	if dst.Len() != bv.nrows {
		return r.corrupt(bv.idx, fmt.Errorf("field %q: %d values, %d rows",
			r.spec.Fields[c].Name, dst.Len(), bv.nrows))
	}
	return nil
}
