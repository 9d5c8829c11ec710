// Package segment implements RodentStore's physical storage objects. A
// segment is one flattened nesting φ(N) (paper §3.4) written as a byte
// stream over a contiguous page extent: the disk realization of one vertical
// partition of a table.
//
// Segments are sequences of self-delimiting blocks. A block holds a run of
// rows in PAX style (column chunks within the block, after Ailamaki et al.,
// which the paper cites): each column chunk is compressed independently with
// the codec the layout assigns to that field (paper §3.5.2). Blocks carry
// the grid cell they belong to (paper §3.6) and zone maps (min/max per
// numeric field) so ordered and gridded scans can skip irrelevant pages —
// the data co-location and reordering dimensions of §3.1.
//
// Block wire format:
//
//	u32 bodyLen | u64 cell | uvarint nrows | ncols × (u32 chunkLen | chunk)
package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rodentstore/internal/compress"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// DefaultRowsPerBlock bounds block size for non-grid segments.
const DefaultRowsPerBlock = 4096

// NoCell marks blocks of ungridded segments.
const NoCell = ^uint64(0)

// Spec describes a segment's stored fields and per-field codecs.
type Spec struct {
	Fields []value.Field
	Codecs []string // parallel to Fields; "" = none
}

// Validate checks the spec and resolves codec names.
func (s Spec) Validate() error {
	if len(s.Fields) == 0 {
		return fmt.Errorf("segment: no fields")
	}
	if len(s.Codecs) != len(s.Fields) {
		return fmt.Errorf("segment: %d codecs for %d fields", len(s.Codecs), len(s.Fields))
	}
	for i, c := range s.Codecs {
		if _, err := compress.Lookup(c); err != nil {
			return fmt.Errorf("segment: field %q: %w", s.Fields[i].Name, err)
		}
	}
	return nil
}

// ZoneMap is the min/max of one numeric field within a block.
type ZoneMap struct {
	Field string
	Min   float64
	Max   float64
}

// BlockMeta locates one block inside the segment stream.
type BlockMeta struct {
	Off      uint64 // byte offset of the u32 length header
	Len      uint32 // total bytes including the header
	Rows     int    // row count
	RowStart int64  // cumulative rows before this block
	Cell     uint64 // grid cell (NoCell when ungridded)
	Zones    []ZoneMap
}

// Meta is the persistent description of a rendered segment.
type Meta struct {
	ExtentStart pager.PageID
	ExtentPages uint64
	UsedBytes   uint64
	Rows        int64
	Blocks      []BlockMeta
	// CellRuns are Blocks cut into cell runs (CutCellRuns), nil for an
	// ungridded segment. They are derived wherever a Meta is built (Finish
	// and the catalog decoder), never encoded.
	CellRuns []CellRun
}

// CellRun is a maximal stretch of consecutive blocks that share a grid
// cell, in stored order: Blocks[Start:End].
type CellRun struct {
	Cell       uint64
	Start, End int
}

// CutCellRuns cuts blocks into cell runs; it returns nil when no block is
// gridded. A gridded segment stores each cell's blocks together, so a plan
// can test one cell per run instead of one per block.
func CutCellRuns(blocks []BlockMeta) []CellRun {
	if !slices.ContainsFunc(blocks, func(b BlockMeta) bool { return b.Cell != NoCell }) {
		return nil
	}
	var runs []CellRun
	for i := range blocks {
		if n := len(runs); n > 0 && runs[n-1].Cell == blocks[i].Cell {
			runs[n-1].End = i + 1
		} else {
			runs = append(runs, CellRun{Cell: blocks[i].Cell, Start: i, End: i + 1})
		}
	}
	return runs
}

// Writer renders blocks into an in-memory stream and flushes them to a
// freshly allocated extent on Finish. (Buffering the stream keeps extents
// contiguous, which is what makes page-adjacency seek accounting faithful;
// segment renders are bulk operations in RodentStore, as §5's eager
// reorganization discussion assumes.)
type Writer struct {
	file   *pager.File
	spec   Spec
	codecs []compress.Codec
	buf    []byte
	blocks []BlockMeta
	rows   int64
	// gather is WriteBlock's per-field scratch: a block's rows are gathered
	// into it, in block order, and encoded from there.
	gather []vec.Vector
}

// NewWriter creates a segment writer.
func NewWriter(file *pager.File, spec Spec) (*Writer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	codecs := make([]compress.Codec, len(spec.Codecs))
	for i, name := range spec.Codecs {
		c, err := compress.Lookup(name)
		if err != nil {
			return nil, err
		}
		codecs[i] = c
	}
	return &Writer{file: file, spec: spec, codecs: codecs, gather: make([]vec.Vector, len(spec.Fields))}, nil
}

// WriteBlock appends one block belonging to the given cell (NoCell for
// ungridded segments): rows, in the order given, of cols — one column per
// spec field, of that field's kind. Each column chunk is encoded straight
// from the typed vector by the codec's path for the field's kind
// (compress.EncodeVec), which refuses a null row and a kind the codec
// cannot store.
func (w *Writer) WriteBlock(cell uint64, cols []*vec.Vector, rows []int32) error {
	if len(rows) == 0 {
		return nil
	}
	if len(cols) != len(w.spec.Fields) {
		return fmt.Errorf("segment: %d columns for %d fields", len(cols), len(w.spec.Fields))
	}
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0) // body length, set below
	w.buf = binary.LittleEndian.AppendUint64(w.buf, cell)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(rows)))
	var zones []ZoneMap
	for c, f := range w.spec.Fields {
		g := &w.gather[c]
		g.Reset(f.Type)
		g.AppendSel(cols[c], rows)
		at := len(w.buf)
		buf, err := compress.EncodeVec(w.codecs[c], append(w.buf, 0, 0, 0, 0), f.Type, g)
		if err != nil {
			w.buf = w.buf[:start]
			return fmt.Errorf("segment: field %q: %w", f.Name, err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		w.buf = buf
		if z, ok := zoneOf(f, g); ok {
			zones = append(zones, z)
		}
	}
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(w.buf)-start-4))
	w.blocks = append(w.blocks, BlockMeta{
		Off:      uint64(start),
		Len:      uint32(len(w.buf) - start),
		Rows:     len(rows),
		RowStart: w.rows,
		Cell:     cell,
		Zones:    zones,
	})
	w.rows += int64(len(rows))
	return nil
}

// zoneOf is the min/max of a numeric block column (which holds no nulls:
// its chunk encoded). Predicates order NaN below every number
// (value.CompareFloats), so a NaN takes the minimum to -Inf: a bound that
// admits NaN rows never prunes their block. An all-NaN block is [-Inf,-Inf].
func zoneOf(f value.Field, v *vec.Vector) (ZoneMap, bool) {
	switch f.Type {
	case value.Int:
		return ZoneMap{Field: f.Name, Min: float64(slices.Min(v.Int64s)), Max: float64(slices.Max(v.Int64s))}, true
	case value.Float:
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range v.Float64s {
			switch {
			case math.IsNaN(x):
				lo = math.Inf(-1)
			case x < lo:
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return ZoneMap{Field: f.Name, Min: lo, Max: hi}, true
	}
	return ZoneMap{}, false
}

// Grow reserves room for n more bytes of stream, so a caller that can
// estimate a segment's size spares the stream its regrowth copies.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Rows returns the number of rows written so far.
func (w *Writer) Rows() int64 { return w.rows }

// Buf returns the writer's encoded stream: after Finish, the bytes its
// extent holds.
func (w *Writer) Buf() []byte { return w.buf }

// Finish allocates a contiguous extent, writes the stream (one positional
// write for the whole extent), and returns the segment metadata. The writer
// must not be reused afterwards, but Buf stays valid.
func (w *Writer) Finish() (Meta, error) {
	payload := uint64(w.file.PayloadSize())
	npages := max((uint64(len(w.buf))+payload-1)/payload, 1)
	start, err := w.file.AllocateRun(npages)
	if err != nil {
		return Meta{}, err
	}
	if err := w.file.WriteRun(start, w.buf); err != nil {
		return Meta{}, err
	}
	return Meta{
		ExtentStart: start,
		ExtentPages: npages,
		UsedBytes:   uint64(len(w.buf)),
		Rows:        w.rows,
		Blocks:      w.blocks,
		CellRuns:    CutCellRuns(w.blocks),
	}, nil
}

// PageSource supplies page payloads to a Reader. *pager.File implements it
// (and RunReader); *buffer.Pool implements it with caching in front of the
// pager (and PageAppender). A source that implements neither extension is
// read one ReadPage per page.
type PageSource interface {
	ReadPage(pager.PageID) ([]byte, error)
	PayloadSize() int
}

// PageAppender is an optional PageSource extension: AppendPage appends
// bytes [lo, hi) of a page's payload to dst and, on error, appends nothing.
// *buffer.Pool implements it by copying the range out of its cached frame,
// so readers over it skip the full-page copy ReadPage pays per access.
type PageAppender interface {
	AppendPage(dst []byte, id pager.PageID, lo, hi int) ([]byte, error)
}

// RunReader is an optional PageSource extension: ReadRunInto appends the
// payloads of npages consecutive pages from start to dst with one read,
// each page's checksum verified, and counts the same page reads and seeks
// as a ReadPage loop over them. *pager.File implements it; a reader over it
// fetches a block's pages with one read.
type RunReader interface {
	ReadRunInto(dst []byte, start pager.PageID, npages uint64) ([]byte, error)
}

// Reader decodes blocks of a rendered segment, counting page I/O through
// the page source. A one-page lookbehind keeps sequential block reads from
// double-counting shared boundary pages. Readers are not safe for
// concurrent use; each goroutine opens its own with NewReader.
type Reader struct {
	file     PageSource
	meta     Meta
	spec     Spec
	codecs   []compress.Codec
	lastPage pager.PageID
	lastBuf  []byte
	// rawBuf and view are the vectorized read path's reusable scratch: View
	// fetches block bytes into rawBuf and parses the chunk directory into
	// view, so steady-state block reads allocate nothing.
	rawBuf []byte
	view   BlockView
}

// NewReader opens a segment for reading.
func NewReader(file PageSource, meta Meta, spec Spec) (*Reader, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	codecs := make([]compress.Codec, len(spec.Codecs))
	for i, name := range spec.Codecs {
		c, err := compress.Lookup(name)
		if err != nil {
			return nil, err
		}
		codecs[i] = c
	}
	return &Reader{file: file, meta: meta, spec: spec, codecs: codecs}, nil
}

// readRangeInto appends [off, off+n) of the segment stream to out (View
// reuses one buffer across blocks). Every page of the range is read once,
// except one the one-page lookbehind already holds: the range's last page,
// which the next sequential block may share, is kept whole in lastBuf, so
// sequential block reads never touch a shared boundary page twice. How the
// other pages are fetched depends on the source:
//   - a PageAppender copies each page's part of the range straight out of
//     its cache (no full-page copy per access);
//   - a RunReader reads them all with one read, into out's spare capacity;
//   - any other source is read one ReadPage per page.
//
// The page reads and seeks counted are the same on every path.
func (r *Reader) readRangeInto(out []byte, off uint64, n uint32) ([]byte, error) {
	if off+uint64(n) > r.meta.UsedBytes {
		return nil, r.corrupt(-1, fmt.Errorf("range [%d,%d) beyond used bytes %d", off, off+uint64(n), r.meta.UsedBytes))
	}
	payload := uint64(r.file.PayloadSize())
	first := off / payload
	last := (off + uint64(n) - 1) / payload
	if runs, ok := r.file.(RunReader); ok {
		return r.readRunInto(runs, out, off, n, first, last)
	}
	appender, _ := r.file.(PageAppender)
	for p := first; p <= last; p++ {
		id := r.meta.ExtentStart + pager.PageID(p)
		lo := uint64(0)
		if p == first {
			lo = off - p*payload
		}
		hi := payload
		if p == last {
			hi = off + uint64(n) - p*payload
		}
		if id == r.lastPage && r.lastBuf != nil {
			out = append(out, r.lastBuf[lo:hi]...)
			continue
		}
		if appender != nil && p != last {
			var err error
			if out, err = appender.AppendPage(out, id, int(lo), int(hi)); err != nil {
				return nil, r.classifyReadErr(-1, err)
			}
			continue
		}
		var page []byte
		var err error
		if appender != nil {
			// lastBuf is the reader's own on this path (ReadPage never runs
			// over an appending source), so it is reused per block.
			page, err = appender.AppendPage(r.lastBuf[:0], id, 0, int(payload))
		} else {
			page, err = r.file.ReadPage(id)
		}
		if err != nil {
			return nil, r.classifyReadErr(-1, err)
		}
		r.lastPage, r.lastBuf = id, page
		out = append(out, page[lo:hi]...)
	}
	return out, nil
}

// readRunInto is readRangeInto over a RunReader: pages [first, last] of the
// extent hold the range, and every one the lookbehind lacks is read with one
// ReadRunInto appended to out. The run's bytes before off are then moved
// out of the way and those after the range cut off, once the last page has
// been copied into lastBuf (the reader's own buffer, reused per block).
func (r *Reader) readRunInto(runs RunReader, out []byte, off uint64, n uint32, first, last uint64) ([]byte, error) {
	payload := uint64(r.file.PayloadSize())
	base, lead := len(out), off-first*payload
	lastID := r.meta.ExtentStart + pager.PageID(last)
	if r.lastBuf != nil && r.lastPage == r.meta.ExtentStart+pager.PageID(first) {
		if first == last {
			return append(out, r.lastBuf[lead:lead+uint64(n)]...), nil
		}
		out = append(out, r.lastBuf[lead:]...)
		first, lead = first+1, 0
	}
	out, err := runs.ReadRunInto(out, r.meta.ExtentStart+pager.PageID(first), last-first+1)
	if err != nil {
		return nil, r.classifyReadErr(-1, err)
	}
	r.lastPage, r.lastBuf = lastID, append(r.lastBuf[:0], out[uint64(len(out))-payload:]...)
	if lead > 0 {
		copy(out[base:], out[base+int(lead):])
	}
	return out[:base+int(n)], nil
}
