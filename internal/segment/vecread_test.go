package segment

import (
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// writeTraceSegment renders traceRows into a segment with the given codecs.
func writeTraceSegment(t *testing.T, codecs []string, n, perBlock int) (*Reader, []value.Row) {
	t.Helper()
	f := newFile(t)
	spec := traceSpec()
	if codecs != nil {
		spec.Codecs = codecs
	}
	w, err := NewWriter(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := traceRows(n)
	for i := 0; i < len(rows); i += perBlock {
		j := i + perBlock
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
	r, err := NewReader(f, meta, spec)
	if err != nil {
		t.Fatal(err)
	}
	return r, rows
}

// TestReadBlockVecMatchesReadBlock checks the batch read against the boxed
// read, block by block, including I/O accounting.
func TestReadBlockVecMatchesReadBlock(t *testing.T) {
	for _, codecs := range [][]string{
		{"", "", ""},
		{"delta", "delta", "dict"},
		{"bitpack", "rle", "rle"},
	} {
		r, _ := writeTraceSegment(t, codecs, 1000, 256)
		boxed := r.Clone()
		schema := value.MustSchema(r.spec.Fields...)
		batch := vec.NewBatch(schema)
		for b := 0; b < r.NumBlocks(); b++ {
			batch.Reset(schema)
			if err := r.ReadBlockVec(b, nil, batch); err != nil {
				t.Fatalf("codecs %v block %d: %v", codecs, b, err)
			}
			cols, err := boxed.ReadBlock(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if batch.Len() != len(cols[0]) {
				t.Fatalf("codecs %v block %d: %d vs %d rows", codecs, b, batch.Len(), len(cols[0]))
			}
			for i := 0; i < batch.Len(); i++ {
				row := batch.Row(i)
				for c := range cols {
					if !value.Equal(row[c], cols[c][i]) {
						t.Fatalf("codecs %v block %d row %d col %d: %v vs %v",
							codecs, b, i, c, row[c], cols[c][i])
					}
				}
			}
		}
	}
}

// TestReadBlockVecProjection reads a column subset.
func TestReadBlockVecProjection(t *testing.T) {
	r, rows := writeTraceSegment(t, nil, 300, 100)
	schema := value.MustSchema(r.spec.Fields[1]) // lat only
	batch := vec.NewBatch(schema)
	pos := 0
	for b := 0; b < r.NumBlocks(); b++ {
		batch.Reset(schema)
		if err := r.ReadBlockVec(b, []int{1}, batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch.Len(); i++ {
			if batch.Cols[0].Float64s[i] != rows[pos][1].Float() {
				t.Fatalf("row %d: %v vs %v", pos, batch.Cols[0].Float64s[i], rows[pos][1])
			}
			pos++
		}
	}
	if pos != len(rows) {
		t.Fatalf("decoded %d rows, want %d", pos, len(rows))
	}
}

// TestViewLateMaterialization decodes one column, then another, from the
// same view — the two-phase read the scan's late materialization performs —
// and checks only one range fetch happened (page reads equal the eager
// ReadBlock path).
func TestViewLateMaterialization(t *testing.T) {
	r, rows := writeTraceSegment(t, nil, 500, 100)
	file := r.file.(*pager.File)
	file.ResetStats()
	bv, err := r.View(0)
	if err != nil {
		t.Fatal(err)
	}
	var lat, id vec.Vector
	if err := bv.DecodeCol(1, &lat); err != nil {
		t.Fatal(err)
	}
	if err := bv.DecodeCol(2, &id); err != nil {
		t.Fatal(err)
	}
	viewReads := file.Stats().PageReads
	file.ResetStats()
	if _, err := r.Clone().ReadBlock(0, nil); err != nil {
		t.Fatal(err)
	}
	if eager := file.Stats().PageReads; viewReads != eager {
		t.Fatalf("view path read %d pages, eager path %d", viewReads, eager)
	}
	if lat.Len() != 100 || id.Len() != 100 {
		t.Fatalf("lens %d %d", lat.Len(), id.Len())
	}
	for i := 0; i < 100; i++ {
		if lat.Float64s[i] != rows[i][1].Float() || string(id.BytesAt(i)) != rows[i][2].Str() {
			t.Fatalf("row %d mismatch", i)
		}
	}
	// Metadata row-count mismatch is an error, not a truncation: corrupt the
	// metadata copy and re-open.
	bad := r.meta
	bad.Blocks = append([]BlockMeta(nil), r.meta.Blocks...)
	bad.Blocks[0].Rows++
	r2, err := NewReader(r.file, bad, r.spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.View(0); err == nil {
		t.Fatal("View accepted metadata/stream row-count mismatch")
	}
}
