package segment

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

func newFile(t *testing.T) *pager.File {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "seg.rdnt"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func traceSpec() Spec {
	return Spec{
		Fields: []value.Field{
			{Name: "t", Type: value.Int},
			{Name: "lat", Type: value.Float},
			{Name: "id", Type: value.Str},
		},
		Codecs: []string{"", "", ""},
	}
}

func traceRows(n int) []value.Row {
	r := rand.New(rand.NewSource(7))
	rows := make([]value.Row, n)
	lat := 42.3
	for i := range rows {
		lat += (r.Float64() - 0.5) * 1e-3
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewFloat(lat),
			value.NewString([]string{"car-1", "car-2", "car-3"}[i%3]),
		}
	}
	return rows
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty spec should fail")
	}
	if err := (Spec{Fields: []value.Field{{Name: "a", Type: value.Int}}, Codecs: nil}).Validate(); err == nil {
		t.Error("codec count mismatch should fail")
	}
	bad := Spec{Fields: []value.Field{{Name: "a", Type: value.Int}}, Codecs: []string{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown codec should fail")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	f := newFile(t)
	w, err := NewWriter(f, traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := traceRows(1000)
	for i := 0; i < len(rows); i += 256 {
		j := i + 256
		if j > len(rows) {
			j = len(rows)
		}
		if err := writeRows(w, NoCell, rows[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 1000 || len(meta.Blocks) != 4 {
		t.Fatalf("meta: rows=%d blocks=%d", meta.Rows, len(meta.Blocks))
	}

	r, err := NewReader(f, meta, traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for b := 0; b < len(r.meta.Blocks); b++ {
		cols, err := r.ReadBlockBoxed(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cols[0] {
			want := rows[got]
			if cols[0][i].Int() != want[0].Int() ||
				cols[1][i].Float() != want[1].Float() ||
				cols[2][i].Str() != want[2].Str() {
				t.Fatalf("row %d mismatch", got)
			}
			got++
		}
	}
	if got != 1000 {
		t.Errorf("read %d rows", got)
	}
}

func TestCompressedColumns(t *testing.T) {
	f := newFile(t)
	spec := traceSpec()
	spec.Codecs = []string{"bitpack", "delta", "dict"}
	w, err := NewWriter(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := traceRows(2000)
	if err := writeRows(w, NoCell, rows); err != nil {
		t.Fatal(err)
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Compare against uncompressed size: codecs must shrink this data.
	w2, _ := NewWriter(f, traceSpec())
	writeRows(w2, NoCell, rows)
	meta2, _ := w2.Finish()
	if meta.UsedBytes >= meta2.UsedBytes {
		t.Errorf("compressed %d >= raw %d", meta.UsedBytes, meta2.UsedBytes)
	}

	r, _ := NewReader(f, meta, spec)
	cols, err := r.ReadBlockBoxed(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if cols[0][i].Int() != row[0].Int() || cols[1][i].Float() != row[1].Float() || cols[2][i].Str() != row[2].Str() {
			t.Fatalf("row %d corrupted by codecs", i)
		}
	}
}

func TestColumnProjection(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	rows := traceRows(100)
	writeRows(w, NoCell, rows)
	meta, _ := w.Finish()

	r, _ := NewReader(f, meta, traceSpec())
	cols, err := r.ReadBlockBoxed(0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if cols[0] != nil || cols[2] != nil {
		t.Error("unrequested columns should be nil")
	}
	if len(cols[1]) != 100 {
		t.Errorf("projected column length %d", len(cols[1]))
	}
}

func TestCellsAndZoneMaps(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	rows := traceRows(100)
	writeRows(w, 7, rows[:50])
	writeRows(w, 9, rows[50:])
	meta, _ := w.Finish()

	if meta.Blocks[0].Cell != 7 || meta.Blocks[1].Cell != 9 {
		t.Errorf("cells: %d %d", meta.Blocks[0].Cell, meta.Blocks[1].Cell)
	}
	if meta.Blocks[1].RowStart != 50 {
		t.Errorf("rowstart: %d", meta.Blocks[1].RowStart)
	}
	// Zone maps exist for t (int) and lat (float), not id (string).
	z := meta.Blocks[0].Zones
	if len(z) != 2 {
		t.Fatalf("zones: %+v", z)
	}
	if z[0].Field != "t" || z[0].Min != 0 || z[0].Max != 49 {
		t.Errorf("t zone: %+v", z[0])
	}
	if z[1].Field != "lat" || z[1].Min >= z[1].Max {
		t.Errorf("lat zone: %+v", z[1])
	}
}

func TestSequentialScanCountsPagesOnce(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	rows := traceRows(5000)
	for i := 0; i < len(rows); i += 500 {
		writeRows(w, NoCell, rows[i:i+500])
	}
	meta, _ := w.Finish()
	r, _ := NewReader(f, meta, traceSpec())

	f.ResetStats()
	for b := 0; b < len(r.meta.Blocks); b++ {
		if _, err := r.ReadBlockBoxed(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.PageReads != meta.ExtentPages {
		t.Errorf("sequential scan read %d pages, extent has %d", s.PageReads, meta.ExtentPages)
	}
	if s.Seeks != 1 {
		t.Errorf("sequential scan seeks = %d, want 1", s.Seeks)
	}
}

func TestRowArityMismatch(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	var t0 vec.Vector
	t0.Reset(value.Int)
	t0.AppendInt64(1)
	if err := w.WriteBlock(NoCell, []*vec.Vector{&t0}, []int32{0}); err == nil {
		t.Error("expected arity error")
	}
}

// writeRows writes rows as one block, in order, through the vector writer.
func writeRows(w *Writer, cell uint64, rows []value.Row) error {
	schema, err := value.NewSchema(w.spec.Fields...)
	if err != nil {
		return err
	}
	b, err := vec.FromRows(schema, rows)
	if err != nil {
		return err
	}
	cols := make([]*vec.Vector, len(b.Cols))
	for i := range cols {
		cols[i] = &b.Cols[i]
	}
	return w.WriteBlock(cell, cols, vec.FillSel(nil, len(rows)))
}

func TestEmptySegment(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 0 || len(meta.Blocks) != 0 {
		t.Errorf("empty segment meta: %+v", meta)
	}
	r, _ := NewReader(f, meta, traceSpec())
	if _, err := r.ReadBlockBoxed(0, nil); err == nil {
		t.Error("reading block of empty segment should fail")
	}
}

func TestWriteBlockEmptyRowsNoop(t *testing.T) {
	f := newFile(t)
	w, _ := NewWriter(f, traceSpec())
	if err := writeRows(w, NoCell, nil); err != nil {
		t.Fatal(err)
	}
	meta, _ := w.Finish()
	if len(meta.Blocks) != 0 {
		t.Error("empty WriteBlock should not create a block")
	}
}

func TestFoldedListColumn(t *testing.T) {
	// Fold output (trailing List column) must render and read back.
	f := newFile(t)
	spec := Spec{
		Fields: []value.Field{
			{Name: "area", Type: value.Int},
			{Name: "folded_zip", Type: value.List},
		},
		Codecs: []string{"", ""},
	}
	w, err := NewWriter(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewInt(617), value.NewList(value.NewInt(2139), value.NewInt(2142))},
		{value.NewInt(212), value.NewList(value.NewInt(10001))},
	}
	if err := writeRows(w, NoCell, rows); err != nil {
		t.Fatal(err)
	}
	meta, _ := w.Finish()
	r, _ := NewReader(f, meta, spec)
	cols, err := r.ReadBlockBoxed(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols[1][0].Len() != 2 || cols[1][0].List()[1].Int() != 2142 {
		t.Errorf("folded column: %v", cols[1][0])
	}
}
