package vec

import (
	"fmt"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
)

func TestVectorRoundTripKinds(t *testing.T) {
	vals := []value.Value{
		value.NewInt(-7),
		value.NewFloat(3.25),
		value.NewString("hello"),
		value.NewBytes([]byte{1, 2, 3}),
		value.NewBool(true),
		value.NewList(value.NewInt(1), value.NewString("x")),
	}
	kinds := []value.Kind{value.Int, value.Float, value.Str, value.Bytes, value.Bool, value.List}
	for k, kind := range kinds {
		var v Vector
		v.Reset(kind)
		if err := v.AppendValue(vals[k]); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		v.AppendNull()
		if v.Len() != 2 {
			t.Fatalf("%s: len %d", kind, v.Len())
		}
		if !value.Equal(v.Value(0), vals[k]) {
			t.Fatalf("%s: got %v want %v", kind, v.Value(0), vals[k])
		}
		if !v.Value(1).IsNull() || !v.IsNull(1) || v.IsNull(0) {
			t.Fatalf("%s: null bits wrong", kind)
		}
	}
}

func TestVectorIntIntoFloatColumn(t *testing.T) {
	// Schemas declare Float but rows may carry Int (value.Schema.Validate
	// accepts the widening); the vector must widen like the boxed path.
	var v Vector
	v.Reset(value.Float)
	if err := v.AppendValue(value.NewInt(4)); err != nil {
		t.Fatal(err)
	}
	if got := v.Value(0); got.Kind() != value.Float || got.Float() != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestAppendSelGather(t *testing.T) {
	var src Vector
	src.Reset(value.Str)
	for _, s := range []string{"a", "bb", "ccc", "dddd"} {
		src.AppendBytes([]byte(s))
	}
	src.AppendNull()
	var dst Vector
	dst.Reset(value.Str)
	dst.AppendSel(&src, []int32{3, 1, 4})
	if dst.Len() != 3 {
		t.Fatalf("len %d", dst.Len())
	}
	if string(dst.BytesAt(0)) != "dddd" || string(dst.BytesAt(1)) != "bb" {
		t.Fatalf("gather wrong: %q %q", dst.BytesAt(0), dst.BytesAt(1))
	}
	if !dst.IsNull(2) || dst.IsNull(0) {
		t.Fatal("null bits not gathered")
	}
}

func TestBatchRowsAndSetLen(t *testing.T) {
	schema := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Str},
	)
	b := NewBatch(schema)
	rows := []value.Row{
		{value.NewInt(1), value.NewString("x")},
		{value.NullValue(), value.NewString("y")},
	}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range rows {
		got := b.Row(i)
		for c := range want {
			if !value.Equal(got[c], want[c]) {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got[c], want[c])
			}
		}
	}
	// Misaligned columns are an error, not a truncation.
	b.Cols[0].AppendInt64(9)
	if err := b.SetLen(3); err == nil {
		t.Fatal("SetLen accepted misaligned columns")
	}
}

// TestAppendRowsMatchesRow holds the slab boxing to Row: over every kind,
// with and without nulls, across several slabs and in selection order,
// AppendRows appends exactly Row's rows after what dst holds, each capped
// at its arity.
func TestAppendRowsMatchesRow(t *testing.T) {
	kinds := []value.Kind{value.Int, value.Float, value.Str, value.Bytes, value.Bool, value.List, value.Int, value.Float}
	fields := make([]value.Field, len(kinds))
	for c, k := range kinds {
		fields[c] = value.Field{Name: string(rune('a' + c)), Type: k}
	}
	b := NewBatch(value.MustSchema(fields...))
	const n = 300
	for i := 0; i < n; i++ {
		row := value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i) / 4), value.NewString(string(rune('a' + i%26))),
			value.NewBytes([]byte{byte(i)}), value.NewBool(i%3 == 0), value.NewList(value.NewInt(int64(i))),
			value.NewInt(-int64(i)), value.NewFloat(-float64(i))}
		if i%7 == 0 { // the last two columns stay null-free
			for c := 0; c < 6; c++ {
				row[c] = value.NullValue()
			}
		}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	sel := make([]int32, 0, n)
	for i := n - 1; i >= 0; i -= 2 {
		sel = append(sel, int32(i))
	}
	head := value.Row{value.NewInt(-1)}
	got := b.AppendRows([]value.Row{head}, sel)
	if len(got) != 1+len(sel) || len(got[0]) != 1 || got[0][0].Int() != -1 {
		t.Fatalf("AppendRows returned %d rows or lost dst's", len(got))
	}
	for k, i := range sel {
		row, want := got[1+k], b.Row(int(i))
		if len(row) != len(want) || cap(row) != len(want) {
			t.Fatalf("row %d: len %d cap %d, arity %d", i, len(row), cap(row), len(want))
		}
		for c := range want {
			if !value.Equal(row[c], want[c]) || row[c].Kind() != want[c].Kind() {
				t.Fatalf("row %d col %d: %v, Row gives %v", i, c, row[c], want[c])
			}
		}
	}
}

func TestPoolReuseResetsState(t *testing.T) {
	p := NewPool()
	s1 := value.MustSchema(value.Field{Name: "a", Type: value.Int})
	b := p.Get(s1)
	b.Cols[0].AppendInt64(1)
	b.Cols[0].Nulls.Set(0)
	if err := b.SetLen(1); err != nil {
		t.Fatal(err)
	}
	p.Put(b)
	s2 := value.MustSchema(value.Field{Name: "x", Type: value.Str}, value.Field{Name: "y", Type: value.Float})
	b2 := p.Get(s2)
	if b2.Len() != 0 || len(b2.Cols) != 2 || b2.Cols[0].Kind() != value.Str {
		t.Fatalf("pool did not reset: len=%d cols=%d", b2.Len(), len(b2.Cols))
	}
	if b2.Cols[0].Nulls.Any() || b2.Cols[1].Nulls.Any() {
		t.Fatal("stale null bits after reset")
	}
}

func TestFromRows(t *testing.T) {
	schema := value.MustSchema(value.Field{Name: "a", Type: value.Float})
	b, err := FromRows(schema, []value.Row{{value.NewFloat(1.5)}, {value.NullValue()}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Cols[0].Float64s[0] != 1.5 || !b.Cols[0].IsNull(1) {
		t.Fatal("FromRows wrong")
	}
}

func TestFillSel(t *testing.T) {
	sel := FillSel(nil, 3)
	if len(sel) != 3 || sel[2] != 2 {
		t.Fatalf("sel %v", sel)
	}
	sel = FillSel(sel, 1)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("sel %v", sel)
	}
}

// TestBorrowLeavesSourceUntouched holds a view (Batch.Borrow) to reading
// its source: boxing a dictionary-form view fills the view's own memo, not
// the source's; dropViews (what Pool.Put runs) hands the column its own
// buffers back, so what the pool's next user appends lands there; OwnViews
// and Move turn a view into a copy that shares no memory with the source.
func TestBorrowLeavesSourceUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src, flat := dictTwin(r, value.Str, 20, 300, true)
	want := cloneVector(src)
	schema := value.MustSchema(value.Field{Name: "s", Type: value.Str})
	b := NewBatch(schema)
	b.Cols[0].AppendBytes([]byte("own"))
	own := &b.Cols[0].Data[0]

	b.Borrow(0, src)
	requireSameColumn(t, "view", &b.Cols[0], flat)
	if len(src.memo) != 0 {
		t.Fatal("boxing the view wrote the source's memo")
	}
	b.dropViews()
	if &b.Cols[0].Data[0] != own {
		t.Fatal("dropViews did not give the column its own buffers back")
	}
	b.Reset(schema)
	for range 50 {
		b.Cols[0].AppendBytes([]byte("scribble"))
	}
	requireSameColumn(t, "source after dropViews", src, want)

	var moved Vector
	for _, end := range []func() *Vector{
		func() *Vector { b.OwnViews(); return &b.Cols[0] },
		func() *Vector { b.Move(0, &moved); return &moved },
	} {
		b.Reset(schema)
		b.Borrow(0, src)
		c := end()
		requireSameColumn(t, "copy", c, flat)
		clear(c.Data)
		clear(c.Codes)
		requireSameColumn(t, "source after a copy was scribbled", src, want)
		b.dropViews()
	}
}

// TestAppendMatchesAppendSel holds Append to AppendSel over the identity
// selection, onto an empty and onto a non-empty column of every
// representation, with and without nulls: the same rows, and for a
// dictionary-form source the same form.
func TestAppendMatchesAppendSel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []value.Kind{value.Int, value.Bool, value.Float, value.Str, value.Bytes, value.List} {
		for _, dictForm := range []bool{false, true} {
			if dictForm && k != value.Str && k != value.Bytes {
				continue
			}
			for _, nulls := range []bool{false, true} {
				for _, rows := range []int{0, 3, 300} {
					var src Vector
					if dictForm {
						dict, _ := dictTwin(r, k, 5, rows, nulls)
						src = *dict
					} else {
						src.Reset(k)
						for i := 0; i < rows; i++ {
							if nulls && i%7 == 3 {
								src.AppendNull()
								continue
							}
							if err := src.AppendValue(randValue(r, k)); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, prefilled := range []bool{false, true} {
						var whole, gathered Vector
						whole.Reset(k)
						gathered.Reset(k)
						if prefilled {
							v := randValue(r, k)
							for _, dst := range []*Vector{&whole, &gathered} {
								if err := dst.AppendValue(v); err != nil {
									t.Fatal(err)
								}
								dst.AppendNull()
							}
						}
						whole.Append(&src)
						gathered.AppendSel(&src, FillSel(nil, src.Len()))
						what := fmt.Sprintf("%s dict=%v nulls=%v rows=%d prefilled=%v", k, dictForm, nulls, rows, prefilled)
						if whole.Len() != gathered.Len() || len(whole.Codes) != len(gathered.Codes) {
							t.Fatalf("%s: Append made %d rows (%d codes), AppendSel %d (%d codes)",
								what, whole.Len(), len(whole.Codes), gathered.Len(), len(gathered.Codes))
						}
						for i := 0; i < whole.Len(); i++ {
							if a, b := whole.Value(i), gathered.Value(i); !value.Equal(a, b) || whole.IsNull(i) != gathered.IsNull(i) {
								t.Fatalf("%s: row %d is %v after Append, %v after AppendSel", what, i, a, b)
							}
						}
					}
				}
			}
		}
	}
}

// randValue returns a random non-null value of kind k.
func randValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.Int:
		return value.NewInt(r.Int63n(100) - 50)
	case value.Bool:
		return value.NewBool(r.Intn(2) == 0)
	case value.Float:
		return value.NewFloat(r.NormFloat64())
	case value.Str:
		return value.NewString(fmt.Sprint("s", r.Intn(9)))
	case value.Bytes:
		return value.NewBytes([]byte(fmt.Sprint("b", r.Intn(9))))
	default:
		return value.NewList(value.NewInt(r.Int63n(3)))
	}
}
