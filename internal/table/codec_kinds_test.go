package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
)

// TestNullFieldIsRefused pins null refusal through the public API: under
// every codec, Load and Insert of a row with a null in any field fail and
// leave the row count as it was. Chunks store no nulls, and the segment
// writer's one encode path (compress.EncodeVec) refuses them.
func TestNullFieldIsRefused(t *testing.T) {
	for _, layoutExpr := range []string{
		"rows(Traces)",
		"rle[id](rows(Traces))",
		"dict[id](rows(Traces))",
		"delta[lat](rows(Traces))",
		"bitpack[t](rows(Traces))",
	} {
		for c, f := range tracesSchema().Fields {
			what := fmt.Sprintf("%s, null %s", layoutExpr, f.Name)
			e, _, _ := newEngine(t)
			if err := e.Create("Traces", tracesSchema(), layoutExpr); err != nil {
				t.Fatal(err)
			}
			rows := traceRows(50)
			bad := slices.Clone(rows)
			bad[7] = slices.Clone(bad[7])
			bad[7][c] = value.NullValue()
			if err := e.Load("Traces", bad); err == nil {
				t.Errorf("%s: Load accepted the null", what)
			}
			if n, err := e.RowCount("Traces"); err != nil || n != 0 {
				t.Errorf("%s: %d rows (%v) after the refused Load, want 0", what, n, err)
			}
			if err := e.Load("Traces", rows); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := e.Insert("Traces", bad[:10]); err == nil {
				t.Errorf("%s: Insert accepted the null", what)
			}
			if n, err := e.RowCount("Traces"); err != nil || n != 50 {
				t.Errorf("%s: %d rows (%v) after the refused Insert, want 50", what, n, err)
			}
		}
	}
}

// sensorRows are rows of (sensor, ts, ok): five sensors in turn, so a fold
// by sensor nests sixty timestamps per group, and a Bool column of runs.
func sensorRows() (*value.Schema, []value.Row) {
	schema := value.MustSchema(
		value.Field{Name: "sensor", Type: value.Str},
		value.Field{Name: "ts", Type: value.Int},
		value.Field{Name: "ok", Type: value.Bool},
	)
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = value.Row{
			value.NewString(fmt.Sprintf("s%d", i%5)),
			value.NewInt(int64(1000 + i)),
			value.NewBool(i%7 < 4),
		}
	}
	return schema, rows
}

// kindLayouts are the layouts that store a List column (fold's nestings,
// plain, run-length and dictionary coded) or a dictionary or run-length
// coded Bool column.
var kindLayouts = []struct {
	expr   string
	folded bool // stores the fold of the rows, not the rows
}{
	{"fold[ts; sensor](R)", true},
	{"rle[folded_ts](fold[ts; sensor](R))", true},
	{"dict[folded_ts](fold[ts; sensor](R))", true},
	{"dict[ok](R)", false},
	{"rle[ok](R)", false},
}

// TestListAndBoolCodecTables loads each of kindLayouts and requires Scan to
// return exactly what was loaded (for a fold layout, the fold of it, as the
// paper's Algorithm 1 computes it) and CheckIntegrity to be clean.
func TestListAndBoolCodecTables(t *testing.T) {
	schema, rows := sensorRows()
	folded, err := transforms.FoldNestedLoop(transforms.Relation{Schema: schema, Rows: rows}, []string{"ts"}, []string{"sensor"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range kindLayouts {
		e, _, _ := newEngine(t)
		if err := e.Create("R", schema, l.expr); err != nil {
			t.Fatalf("%s: %v", l.expr, err)
		}
		if err := e.Load("R", rows); err != nil {
			t.Fatalf("%s: %v", l.expr, err)
		}
		cur, err := e.Scan("R", ScanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", l.expr, err)
		}
		want := rows
		if l.folded {
			want = folded.Rows
		}
		requireRows(t, l.expr, drain(t, cur), want)
		cur.Close()
		if rep, err := e.CheckIntegrity(); err != nil || !rep.OK() || rep.Blocks == 0 {
			t.Fatalf("%s: integrity %+v, %v", l.expr, rep, err)
		}
	}
}

// TestForgedChunkFailsIntegrity forges the dictionary size of one
// dictionary-coded List chunk and one Bool chunk to 1<<62 and rewrites the
// chunk's pages whole, so every page checksum is good and only the decode
// can tell: CheckIntegrity must name that block, with a typed
// ErrCorruptExtent.
func TestForgedChunkFailsIntegrity(t *testing.T) {
	schema, rows := sensorRows()
	for _, c := range []struct{ layoutExpr, field string }{
		{"dict[folded_ts](fold[ts; sensor](R))", "folded_ts"},
		{"dict[ok](R)", "ok"},
	} {
		e, f, _ := newEngine(t)
		if err := e.Create("R", schema, c.layoutExpr); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("R", rows); err != nil {
			t.Fatal(err)
		}
		seg := forgeDictSize(t, e, f, "R", c.field)
		rep, err := e.CheckIntegrity()
		if err != nil {
			t.Fatal(err)
		}
		var ce *segment.ErrCorruptExtent
		if len(rep.Issues) != 1 || rep.Issues[0].Segment != seg || rep.Issues[0].Block != 0 || !errors.As(rep.Issues[0].Err, &ce) {
			t.Fatalf("%s: issues %v, want one ErrCorruptExtent at segment %d block 0", c.layoutExpr, rep.Issues, seg)
		}
	}
}

// forgeDictSize overwrites the dictionary size of the chunk of field in
// block 0 of table's main segment that stores it, rewriting the segment's
// pages through the pager (which checksums them afresh), and returns that
// segment's index.
func forgeDictSize(t *testing.T, e *Engine, f *pager.File, table, field string) int {
	t.Helper()
	tab, err := e.cat.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	for si, entry := range tab.Segments {
		c := slices.Index(entry.Fields, field)
		if c < 0 {
			continue
		}
		meta := entry.Meta
		stream, err := f.ReadRunInto(nil, meta.ExtentStart, meta.ExtentPages)
		if err != nil {
			t.Fatal(err)
		}
		// Walk block 0's framing to the chunk: body length, cell, row
		// count, then a length-prefixed chunk per column.
		off := int(meta.Blocks[0].Off) + 4 + 8
		_, sz := binary.Uvarint(stream[off:])
		off += sz
		for k := 0; k < c; k++ {
			off += 4 + int(binary.LittleEndian.Uint32(stream[off:]))
		}
		chunk := stream[off+4 : off+4+int(binary.LittleEndian.Uint32(stream[off:]))]
		_, sz = binary.Uvarint(chunk) // row count, then the dictionary size
		forged := binary.AppendUvarint(nil, 1<<62)
		if len(chunk) < sz+len(forged) {
			t.Fatalf("chunk of %d bytes is too short to forge", len(chunk))
		}
		copy(chunk[sz:], forged)
		if err := f.WriteRun(meta.ExtentStart, stream); err != nil {
			t.Fatal(err)
		}
		return si
	}
	t.Fatalf("no segment of %s stores %s", table, field)
	return -1
}
