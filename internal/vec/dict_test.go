package vec

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/value"
)

// dictTwin builds a random dictionary-form column of ne entries (some of
// them equal byte strings, some empty) and nrows rows, and the flat column
// holding the same rows. A seventh of the rows is null when nulls is set.
func dictTwin(r *rand.Rand, k value.Kind, ne, nrows int, nulls bool) (dict, flat *Vector) {
	dict, flat = &Vector{}, &Vector{}
	dict.Reset(k)
	flat.Reset(k)
	if nrows == 0 {
		return dict, flat
	}
	dict.Offs = append(dict.Offs, 0)
	for e := 0; e < ne; e++ {
		if e%5 != 4 {
			dict.Data = append(dict.Data, fmt.Sprint("key", e%(ne/2+1))...)
		}
		dict.Offs = append(dict.Offs, uint64(len(dict.Data)))
	}
	for i := 0; i < nrows; i++ {
		c := r.Intn(ne)
		dict.Codes = append(dict.Codes, uint32(c))
		if nulls && r.Intn(7) == 0 {
			dict.Nulls.Set(i)
			flat.AppendNull()
			continue
		}
		flat.AppendBytes(dict.Entry(c))
	}
	dict.SyncLen()
	return dict, flat
}

// requireSameColumn fails unless a and b hold the same rows as seen through
// the accessors every consumer uses.
func requireSameColumn(t *testing.T, what string, a, b *Vector) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d rows vs %d", what, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			t.Fatalf("%s: row %d null %v vs %v", what, i, a.IsNull(i), b.IsNull(i))
		}
		if !a.IsNull(i) && !bytes.Equal(a.BytesAt(i), b.BytesAt(i)) {
			t.Fatalf("%s: row %d %q vs %q", what, i, a.BytesAt(i), b.BytesAt(i))
		}
		if av, bv := a.Value(i), b.Value(i); av.Kind() != bv.Kind() || !value.Equal(av, bv) {
			t.Fatalf("%s: row %d boxes to %v vs %v", what, i, av, bv)
		}
	}
}

// cloneVector deep-copies a column so a mutation under test leaves the
// original for the next case.
func cloneVector(v *Vector) *Vector {
	c := *v
	c.Data, c.Offs, c.Codes = slices.Clone(v.Data), slices.Clone(v.Offs), slices.Clone(v.Codes)
	c.Nulls.bits = slices.Clone(v.Nulls.bits)
	c.memo = nil
	return &c
}

var dictShapes = []struct{ entries, rows int }{
	{0, 0}, {1, 1}, {1, 40}, {5, 3}, {5, 300}, {200, 3}, {200, 300}, {70, 5000},
}

// TestDictionaryFormIndistinguishable is the differential property of the
// dictionary form: through BytesAt, Value, Row, AppendSel and the Append*
// calls a dictionary-form column and its flat twin cannot be told apart.
func TestDictionaryFormIndistinguishable(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, k := range []value.Kind{value.Str, value.Bytes} {
		for _, sh := range dictShapes {
			for _, nulls := range []bool{false, true} {
				name := fmt.Sprintf("%s/e%d/r%d/nulls=%v", k, sh.entries, sh.rows, nulls)
				dict, flat := dictTwin(r, k, sh.entries, sh.rows, nulls)
				requireSameColumn(t, name, dict, flat)

				schema := value.MustSchema(value.Field{Name: "s", Type: k})
				db, fb := NewBatch(schema), NewBatch(schema)
				db.Cols[0], fb.Cols[0] = *cloneVector(dict), *cloneVector(flat)
				if err := db.SetLen(sh.rows); err != nil {
					t.Fatal(err)
				}
				if err := fb.SetLen(sh.rows); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < sh.rows; i++ {
					if dr, fr := db.Row(i), fb.Row(i); !value.Equal(dr[0], fr[0]) {
						t.Fatalf("%s: Row(%d) %v vs %v", name, i, dr, fr)
					}
				}

				for si, sel := range sels(r, sh.rows)[1:] { // empty, partial, full
					for _, prefilled := range []bool{false, true} {
						var dd, fd Vector
						dd.Reset(k)
						fd.Reset(k)
						if prefilled {
							dd.AppendBytes([]byte("first"))
							fd.AppendBytes([]byte("first"))
							dd.AppendNull()
							fd.AppendNull()
						}
						dd.AppendSel(dict, sel)
						fd.AppendSel(flat, sel)
						what := fmt.Sprintf("%s: AppendSel sel#%d prefilled=%v", name, si, prefilled)
						requireSameColumn(t, what, &dd, &fd)
						// A gathered column is itself a source ...
						var again Vector
						again.Reset(k)
						again.AppendSel(&dd, FillSel(nil, dd.Len()))
						requireSameColumn(t, what+" regathered", &again, &fd)
						// ... and a target.
						dd.AppendBytes([]byte("tail"))
						fd.AppendBytes([]byte("tail"))
						requireSameColumn(t, what+" then AppendBytes", &dd, &fd)
					}
				}

				d2, f2 := cloneVector(dict), cloneVector(flat)
				for _, v := range []*Vector{d2, f2} {
					v.AppendBytes([]byte("not in the dictionary"))
					v.AppendNull()
					boxed := value.NewString("boxed")
					if k == value.Bytes {
						boxed = value.NewBytes([]byte("boxed"))
					}
					if err := v.AppendValue(boxed); err != nil {
						t.Fatal(err)
					}
				}
				requireSameColumn(t, name+": after Append*", d2, f2)
				if len(d2.Codes) != 0 {
					t.Fatalf("%s: Append* left the dictionary form in place", name)
				}
			}
		}
	}
}

// groupBoth runs GroupIDs over the dictionary-form key columns and over
// their flat twins on fresh tables and requires the same ids and the same
// stored keys in the same order.
func groupBoth(t *testing.T, what string, keys *value.Schema, dcols, fcols []*Vector, sel []int32, n int) (*GroupTable, *GroupTable) {
	t.Helper()
	dg, fg := NewGroupTable(keys), NewGroupTable(keys)
	requireSameGroups(t, what, dg, fg, dcols, fcols, sel, n)
	return dg, fg
}

func requireSameGroups(t *testing.T, what string, dg, fg *GroupTable, dcols, fcols []*Vector, sel []int32, n int) {
	t.Helper()
	dids := dg.GroupIDs(dcols, sel, n, nil)
	fids := fg.GroupIDs(fcols, sel, n, nil)
	if !slices.Equal(dids, fids) {
		t.Fatalf("%s: group ids differ\n dict %v\n flat %v", what, dids, fids)
	}
	if dg.Len() != fg.Len() {
		t.Fatalf("%s: %d groups vs %d", what, dg.Len(), fg.Len())
	}
	for g := 0; g < dg.Len(); g++ {
		dr, fr := dg.Keys().Row(g), fg.Keys().Row(g)
		for c := range dr {
			if !value.Equal(dr[c], fr[c]) {
				t.Fatalf("%s: group %d key %v vs %v", what, g, dr, fr)
			}
		}
	}
}

// TestGroupIDsDictionaryForm checks the by-code and per-entry-hash paths of
// GroupIDs against row-by-row assignment over the flat twin: with and
// without a selection, one and two key columns, nulls, an empty dictionary,
// zero rows, a second block into a table that already has groups, and the
// re-keying of one table's stored keys into another.
func TestGroupIDsDictionaryForm(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	one := value.MustSchema(value.Field{Name: "s", Type: value.Str})
	two := value.MustSchema(value.Field{Name: "s", Type: value.Str}, value.Field{Name: "i", Type: value.Int})
	pair := value.MustSchema(value.Field{Name: "s", Type: value.Str}, value.Field{Name: "b", Type: value.Bytes})
	for _, sh := range dictShapes {
		for _, nulls := range []bool{false, true} {
			dict, flat := dictTwin(r, value.Str, sh.entries, sh.rows, nulls)
			dict2, flat2 := dictTwin(r, value.Bytes, sh.entries/3+1, sh.rows, nulls)
			var ints Vector
			ints.Reset(value.Int)
			for i := 0; i < sh.rows; i++ {
				if nulls && r.Intn(9) == 0 {
					ints.AppendNull()
				} else {
					ints.AppendInt64(int64(r.Intn(3)))
				}
			}
			for si, sel := range sels(r, sh.rows) {
				what := fmt.Sprintf("e%d/r%d/nulls=%v/sel#%d", sh.entries, sh.rows, nulls, si)
				dg, fg := groupBoth(t, what+" one key", one, []*Vector{dict}, []*Vector{flat}, sel, sh.rows)
				groupBoth(t, what+" str+int keys", two, []*Vector{dict, &ints}, []*Vector{flat, &ints}, sel, sh.rows)
				groupBoth(t, what+" two dict keys", pair, []*Vector{dict, dict2}, []*Vector{flat, flat2}, sel, sh.rows)

				// A second block into the same tables: groups found, not made.
				next, nextFlat := dictTwin(r, value.Str, sh.entries, sh.rows, nulls)
				requireSameGroups(t, what+" second block", dg, fg, []*Vector{next}, []*Vector{nextFlat}, sel, sh.rows)

				// The parallel merge: a partial's stored keys re-keyed into a
				// final table that saw other blocks first.
				final, finalFlat := groupBoth(t, what+" final", one, []*Vector{next}, []*Vector{nextFlat}, nil, sh.rows)
				requireSameGroups(t, what+" merge", final, finalFlat, dg.KeyCols(), fg.KeyCols(), nil, dg.Len())
			}
		}
	}
}

// TestGroupTableGrowth drives the open-addressed index through several
// doublings and checks every key still finds its group.
func TestGroupTableGrowth(t *testing.T) {
	schema := value.MustSchema(value.Field{Name: "i", Type: value.Int})
	g := NewGroupTable(schema)
	var col Vector
	col.Reset(value.Int)
	const n = 5000
	for i := 0; i < n; i++ {
		col.AppendInt64(int64(i * 7919))
	}
	first := g.GroupIDs([]*Vector{&col}, nil, n, nil)
	again := g.GroupIDs([]*Vector{&col}, nil, n, nil)
	if g.Len() != n || !slices.Equal(first, again) {
		t.Fatalf("%d groups for %d keys, ids stable: %v", g.Len(), n, slices.Equal(first, again))
	}
	for i, id := range first {
		if int(id) != i {
			t.Fatalf("key %d got group %d", i, id)
		}
	}
}

// TestValueBoxesEachEntryOnce pins the boxing cost of the dictionary form:
// one allocation per entry a row names, not one per row.
func TestValueBoxesEachEntryOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dict, _ := dictTwin(r, value.Str, 8, 4096, false)
	schema := value.MustSchema(value.Field{Name: "s", Type: value.Str})
	b := NewBatch(schema)
	b.Cols[0] = *dict
	if err := b.SetLen(dict.Len()); err != nil {
		t.Fatal(err)
	}
	b.Row(0) // sizes the memo
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < b.Len(); i++ {
			_ = b.Cols[0].Value(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("boxing a boxed dictionary column again allocated %.0f times", allocs)
	}
}
