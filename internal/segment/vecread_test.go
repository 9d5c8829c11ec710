package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/oracle"
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

// ReadBlockVec decodes block i's wanted columns (nil = all) into dst, whose
// schema must list the wanted fields in spec order: View plus one DecodeCol
// per column, the eager form the tests compare against ReadBlockBoxed.
func (r *Reader) ReadBlockVec(i int, wantCols []int, dst *vec.Batch) error {
	bv, err := r.View(i)
	if err != nil {
		return err
	}
	if wantCols == nil {
		wantCols = make([]int, len(r.spec.Fields))
		for c := range wantCols {
			wantCols[c] = c
		}
	}
	if dst.Schema().Arity() != len(wantCols) {
		return fmt.Errorf("segment: batch arity %d for %d wanted columns", dst.Schema().Arity(), len(wantCols))
	}
	for k, c := range wantCols {
		if err := bv.DecodeCol(c, &dst.Cols[k]); err != nil {
			return err
		}
	}
	return dst.SetLen(bv.nrows)
}

// ReadBlockBoxed decodes block i's wanted columns (nil = all) into boxed
// values: View plus the boxed reference decoder of each wanted chunk, the
// form the tests compare the typed path against. Unwanted columns come back
// nil.
func (r *Reader) ReadBlockBoxed(i int, wantCols []int) ([][]value.Value, error) {
	bv, err := r.View(i)
	if err != nil {
		return nil, err
	}
	out := make([][]value.Value, len(r.spec.Fields))
	for c, f := range r.spec.Fields {
		if wantCols != nil && !slices.Contains(wantCols, c) {
			continue
		}
		codec, err := oracle.LookupCodec(r.spec.Codecs[c])
		if err != nil {
			return nil, err
		}
		vals, err := codec.Decode(bv.Chunk(c), f.Type)
		if err != nil {
			return nil, r.corrupt(i, fmt.Errorf("field %q: %w", f.Name, err))
		}
		if len(vals) != bv.nrows {
			return nil, r.corrupt(i, fmt.Errorf("field %q: %d values, %d rows", f.Name, len(vals), bv.nrows))
		}
		out[c] = vals
	}
	return out, nil
}

// reopen opens a second reader over r's segment, with a lookbehind of its
// own.
func reopen(t *testing.T, r *Reader) *Reader {
	t.Helper()
	r2, err := NewReader(r.file, r.meta, r.spec)
	if err != nil {
		t.Fatal(err)
	}
	return r2
}

// TestReadBlockVecMatchesReadBlock checks the batch read against the boxed
// reference read, block by block.
func TestReadBlockVecMatchesReadBlock(t *testing.T) {
	for _, codecs := range [][]string{
		{"", "", ""},
		{"delta", "delta", "dict"},
		{"bitpack", "rle", "rle"},
	} {
		r, _ := writeTraceSegment(t, codecs, 1000, 256)
		boxed := reopen(t, r)
		schema := value.MustSchema(r.spec.Fields...)
		batch := vec.NewBatch(schema)
		for b := 0; b < len(r.meta.Blocks); b++ {
			batch.Reset(schema)
			if err := r.ReadBlockVec(b, nil, batch); err != nil {
				t.Fatalf("codecs %v block %d: %v", codecs, b, err)
			}
			cols, err := boxed.ReadBlockBoxed(b, nil)
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
	for b := 0; b < len(r.meta.Blocks); b++ {
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
// and checks only one range fetch happened (page reads equal those of one
// View on a fresh reader).
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
	if _, err := reopen(t, r).View(0); err != nil {
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

// pageLoop hides a file's RunReader, so a reader over it fetches one
// ReadPage per page.
type pageLoop struct{ f *pager.File }

func (s pageLoop) ReadPage(id pager.PageID) ([]byte, error) { return s.f.ReadPage(id) }
func (s pageLoop) PayloadSize() int                         { return s.f.PayloadSize() }

// TestRunFetchMatchesPageLoop holds a reader over a plain *pager.File (one
// ReadRunInto per block) to a reader over the same file that reads page by
// page: the same block bytes and the same page reads, seeks and seek
// distance, over blocks within one page, blocks sharing boundary pages and
// blocks spanning many, read in order, backwards and at random.
func TestRunFetchMatchesPageLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, perBlock := range []int{1, 7, 40, 100, 700} {
		r, _ := writeTraceSegment(t, nil, 2000, perBlock)
		file := r.file.(*pager.File)
		nb := len(r.meta.Blocks)
		orders := map[string][]int{"forward": nil, "backward": nil, "random": rnd.Perm(nb)}
		for b := 0; b < nb; b++ {
			orders["forward"] = append(orders["forward"], b)
			orders["backward"] = append(orders["backward"], nb-1-b)
		}
		for name, order := range orders {
			loop, err := NewReader(pageLoop{file}, r.meta, r.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := loop.file.(RunReader); ok {
				t.Fatal("pageLoop exposes ReadRunInto")
			}
			run := reopen(t, r)
			fetch := func(rd *Reader) ([][]byte, pager.Stats) {
				file.ResetStats()
				var raws [][]byte
				for _, b := range order {
					if _, err := rd.View(b); err != nil {
						t.Fatalf("%d rows/block %s block %d: %v", perBlock, name, b, err)
					}
					raws = append(raws, bytes.Clone(rd.rawBuf))
				}
				return raws, file.Stats()
			}
			want, wantSt := fetch(loop)
			got, gotSt := fetch(run)
			for k := range want {
				if !bytes.Equal(got[k], want[k]) {
					t.Fatalf("%d rows/block %s: block %d bytes differ", perBlock, name, order[k])
				}
			}
			if gotSt.PageReads != wantSt.PageReads || gotSt.Seeks != wantSt.Seeks || gotSt.SeekDistance != wantSt.SeekDistance {
				t.Errorf("%d rows/block %s: run fetch counted %+v, page loop %+v", perBlock, name, gotSt, wantSt)
			}
		}
	}
}

// TestViewColdFetchAllocations pins the cold fetch's memory: once a reader
// over a plain *pager.File has seen its largest block, a View loop over
// blocks of one to several pages allocates nothing per block (the run read
// lands in the reader's own buffer, and the lookbehind is reused).
func TestViewColdFetchAllocations(t *testing.T) {
	for _, perBlock := range []int{40, 300} {
		r, _ := writeTraceSegment(t, nil, 3000, perBlock)
		payload := uint64(r.file.PayloadSize())
		multi := false
		for _, b := range r.meta.Blocks {
			multi = multi || (b.Off+uint64(b.Len)-1)/payload > b.Off/payload+1
		}
		if perBlock == 300 && !multi {
			t.Fatalf("%d rows per block: want blocks spanning three or more pages", perBlock)
		}
		view := func() {
			for b := range r.meta.Blocks {
				if _, err := r.View(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		view() // size the reader's buffers
		if a := testing.AllocsPerRun(20, view) / float64(len(r.meta.Blocks)); a != 0 {
			t.Errorf("%d rows per block: %.2f allocations per block, want 0", perBlock, a)
		}
	}
}
