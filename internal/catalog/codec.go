package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
)

// Binary catalog serialization. The catalog is rewritten on every DDL and
// on every Insert's publish phase, re-encoding every tail batch's block
// metadata per insert, so the form is a straightforward length-prefixed
// little-endian encoding that is cheap to produce.
//
// Format: [catMagic u8][catVersion u8][uvarint ntables][table...], each
// table record ending with its leveled run list (empty for tables without a
// compaction policy). There is one record format; a payload carrying any
// other version byte is refused. Version 3 went with the pager meta slot
// that records the commit id the catalog reflects (slotReflects); version 4
// with the tail record (EncodeTailAppend) its logs hold: a binary that
// would skip those records in recovery must not open such a file. Version 5
// records each index tree's extents, from which, with every part's, the
// engine derives free space at open; its trees key floats by value order.
const (
	catMagic   = 0xC7
	catVersion = 5
)

// encodeTables serializes the catalog's table list.
func encodeTables(tables []*Table) []byte {
	return encodeTablesInto(nil, tables)
}

// encodeTablesInto serializes into buf (reusing its capacity) and returns
// the encoded bytes. The catalog's flush keeps a scratch buffer so the
// per-insert catalog rewrite does not reallocate its way up from empty.
func encodeTablesInto(buf []byte, tables []*Table) []byte {
	e := &enc{buf: buf[:0]}
	e.buf = append(e.buf, catMagic, catVersion)
	e.uvarint(uint64(len(tables)))
	for _, t := range tables {
		e.str(t.Name)
		e.uvarint(uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.str(f.Name)
			e.str(f.Type)
		}
		e.str(t.LayoutExpr)
		e.i64(t.RowCount)
		e.segments(t.Segments)
		e.uvarint(uint64(len(t.Tails)))
		for _, batch := range t.Tails {
			e.segments(batch)
		}
		e.uvarint(uint64(len(t.GridBounds)))
		for _, g := range t.GridBounds {
			e.str(g.Field)
			e.f64(g.Min)
			e.f64(g.Max)
			e.i64(int64(g.Cells))
		}
		e.uvarint(uint64(len(t.Indexes)))
		for _, ix := range t.Indexes {
			e.str(ix.Field)
			e.u64(ix.Root)
			e.i64(ix.Rows)
			e.uvarint(uint64(len(ix.Extents)))
			for _, x := range ix.Extents {
				e.u64(uint64(x.Start))
				e.u64(x.Count)
			}
		}
		e.bool(t.NeedsReorg)
		e.str(t.PendingExpr)
		e.uvarint(uint64(len(t.Runs)))
		for _, r := range t.Runs {
			e.i64(int64(r.Level))
			e.i64(r.Rows)
			e.segments(r.Segments)
		}
	}
	return e.buf
}

// decodeTables deserializes a catalog payload.
func decodeTables(buf []byte) ([]*Table, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	if len(buf) < 2 || buf[0] != catMagic || buf[1] != catVersion {
		return nil, fmt.Errorf("catalog: bad catalog header % x", buf[:min(len(buf), 2)])
	}
	d := &dec{buf: buf[2:]}
	n := d.uvarint()
	tables := make([]*Table, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		t := &Table{}
		t.Name = d.str()
		nf := d.uvarint()
		t.Fields = make([]FieldMeta, 0, nf)
		for j := uint64(0); j < nf && d.err == nil; j++ {
			t.Fields = append(t.Fields, FieldMeta{Name: d.str(), Type: d.str()})
		}
		t.LayoutExpr = d.str()
		t.RowCount = d.i64()
		t.Segments = d.segments()
		nt := d.uvarint()
		for j := uint64(0); j < nt && d.err == nil; j++ {
			t.Tails = append(t.Tails, d.segments())
		}
		ng := d.uvarint()
		for j := uint64(0); j < ng && d.err == nil; j++ {
			t.GridBounds = append(t.GridBounds, GridBoundsMeta{
				Field: d.str(), Min: d.f64(), Max: d.f64(), Cells: int(d.i64()),
			})
		}
		ni := d.uvarint()
		for j := uint64(0); j < ni && d.err == nil; j++ {
			ix := IndexMeta{Field: d.str(), Root: d.u64(), Rows: d.i64()}
			nx := d.uvarint()
			for k := uint64(0); k < nx && d.err == nil; k++ {
				ix.Extents = append(ix.Extents, pager.Extent{Start: pager.PageID(d.u64()), Count: d.u64()})
			}
			t.Indexes = append(t.Indexes, ix)
		}
		t.NeedsReorg = d.bool()
		t.PendingExpr = d.str()
		nr := d.uvarint()
		for j := uint64(0); j < nr && d.err == nil; j++ {
			t.Runs = append(t.Runs, RunEntry{
				Level: int(d.i64()), Rows: d.i64(), Segments: d.segments(),
			})
		}
		tables = append(tables, t)
	}
	if d.err != nil {
		return nil, fmt.Errorf("catalog: decode: %w", d.err)
	}
	return tables, nil
}

// tailMagic tags a tail record (EncodeTailAppend), distinct from
// the full-catalog magic so a mixed-up payload fails loudly.
const tailMagic = 0xC8

// EncodeTailAppend serializes one durable insert as a tail record for redo
// logging: "append this tail batch to table name, adding rows to its
// count", with each segment's stream bytes. The record is O(one batch), not
// O(catalog), and names no page: recovery replays it with ApplyTailAppend,
// which writes the streams to fresh extents.
func EncodeTailAppend(name string, batch []SegmentEntry, rows int64, streams [][]byte) []byte {
	n := 64 + len(name)
	for _, b := range streams {
		n += binary.MaxVarintLen64 + len(b)
	}
	e := &enc{buf: make([]byte, 0, n)}
	e.buf = append(e.buf, tailMagic, catVersion)
	e.str(name)
	e.i64(rows)
	e.segments(batch)
	for _, b := range streams {
		e.uvarint(uint64(len(b)))
		e.buf = append(e.buf, b...)
	}
	return e.buf
}

// ApplyTailAppend replays the tail record of commit id during recovery. A
// commit the persisted catalog reflects is skipped (a fold may since have
// absorbed its tail), as is one for a table that no longer exists. Any
// other gets a fresh extent per segment, its stream written there, and its
// tail appended, marking the catalog dirty (the next Flush persists it). It
// never writes a page an existing part may own: at worst, the extent the
// insert wrote before the crash leaks.
func (c *Catalog) ApplyTailAppend(id uint64, blob []byte) error {
	if len(blob) < 2 || blob[0] != tailMagic || blob[1] != catVersion {
		return fmt.Errorf("catalog: bad tail-append header % x", blob[:min(len(blob), 2)])
	}
	d := &dec{buf: blob[2:]}
	name := d.str()
	rows := d.i64()
	batch := d.segments()
	streams := make([][]byte, len(batch))
	for i := range streams {
		n := d.uvarint()
		if d.err == nil && uint64(len(d.buf)) < n {
			d.fail()
		}
		if d.err == nil {
			streams[i], d.buf = d.buf[:n], d.buf[n:]
		}
	}
	if d.err != nil {
		return fmt.Errorf("catalog: decode tail-append: %w", d.err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.issued = max(c.issued, id)
	t, ok := (*c.tables.Load())[name]
	if id <= c.reflects || !ok || len(batch) == 0 {
		return nil
	}
	for i := range batch {
		m := &batch[i].Meta
		if m.UsedBytes != uint64(len(streams[i])) {
			return fmt.Errorf("catalog: tail-append segment %d: %d stream bytes, %d recorded", i, len(streams[i]), m.UsedBytes)
		}
		payload := uint64(c.file.PayloadSize())
		m.ExtentPages = max((m.UsedBytes+payload-1)/payload, 1)
		start, err := c.file.AllocateRun(m.ExtentPages)
		if err != nil {
			return err
		}
		if err := c.file.WriteRun(start, streams[i]); err != nil {
			return err
		}
		m.ExtentStart = start
	}
	work := *t
	work.Tails = append(slices.Clip(t.Tails), batch)
	work.RowCount += rows
	m := c.edited(name, &work)
	c.tables.Store(&m)
	c.dirty = true
	return nil
}

// enc is a little-endian append-only encoder.
type enc struct{ buf []byte }

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) u64(v uint64)     { e.uvarint(v) }
func (e *enc) i64(v int64)      { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) segments(entries []SegmentEntry) {
	e.uvarint(uint64(len(entries)))
	for _, s := range entries {
		e.uvarint(uint64(len(s.Fields)))
		for _, f := range s.Fields {
			e.str(f)
		}
		e.uvarint(uint64(len(s.Codecs)))
		for _, c := range s.Codecs {
			e.str(c)
		}
		m := s.Meta
		e.u64(uint64(m.ExtentStart))
		e.u64(m.ExtentPages)
		e.u64(m.UsedBytes)
		e.i64(m.Rows)
		e.uvarint(uint64(len(m.Blocks)))
		for _, b := range m.Blocks {
			e.u64(b.Off)
			e.u64(uint64(b.Len))
			e.i64(int64(b.Rows))
			e.i64(b.RowStart)
			e.u64(b.Cell)
			e.uvarint(uint64(len(b.Zones)))
			for _, z := range b.Zones {
				e.str(z.Field)
				e.f64(z.Min)
				e.f64(z.Max)
			}
		}
	}
}

// dec is the matching decoder; the first malformed read latches err and
// zero-values every subsequent read.
type dec struct {
	buf []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated catalog payload")
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) u64() uint64 { return d.uvarint() }

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.fail()
		return false
	}
	b := d.buf[0] != 0
	d.buf = d.buf[1:]
	return b
}

func (d *dec) segments() []SegmentEntry {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]SegmentEntry, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var s SegmentEntry
		nf := d.uvarint()
		for j := uint64(0); j < nf && d.err == nil; j++ {
			s.Fields = append(s.Fields, d.str())
		}
		nc := d.uvarint()
		for j := uint64(0); j < nc && d.err == nil; j++ {
			s.Codecs = append(s.Codecs, d.str())
		}
		s.Meta.ExtentStart = pager.PageID(d.u64())
		s.Meta.ExtentPages = d.u64()
		s.Meta.UsedBytes = d.u64()
		s.Meta.Rows = d.i64()
		nb := d.uvarint()
		if d.err == nil && nb > 0 {
			s.Meta.Blocks = make([]segment.BlockMeta, 0, nb)
		}
		for j := uint64(0); j < nb && d.err == nil; j++ {
			var b segment.BlockMeta
			b.Off = d.u64()
			b.Len = uint32(d.u64())
			b.Rows = int(d.i64())
			b.RowStart = d.i64()
			b.Cell = d.u64()
			nz := d.uvarint()
			for k := uint64(0); k < nz && d.err == nil; k++ {
				b.Zones = append(b.Zones, segment.ZoneMap{Field: d.str(), Min: d.f64(), Max: d.f64()})
			}
			s.Meta.Blocks = append(s.Meta.Blocks, b)
		}
		s.Meta.CellRuns = segment.CutCellRuns(s.Meta.Blocks)
		out = append(out, s)
	}
	return out
}
