package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/oracle"
	"rodentstore/internal/value"
)

func TestCreateIndexAndScan(t *testing.T) {
	e, f, rows := setup(t, "chunk[64](rows(Traces))", 4000)
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	idx, err := e.Indexes("Traces")
	if err != nil || len(idx) != 1 || idx[0] != "t" {
		t.Fatalf("indexes: %v %v", idx, err)
	}

	pred, _ := algebra.ParsePredicate("t >= 100 and t < 120")
	cur, err := e.IndexScan("Traces", nil, pred, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	var want []int
	schema := tracesSchema()
	for _, r := range rows {
		if oracle.Eval(pred, schema, r) {
			want = append(want, 1)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("index scan: got %d rows, want %d", len(got), len(want))
	}
	for _, r := range got {
		if r[0].Int() < 100 || r[0].Int() >= 120 {
			t.Fatalf("row outside range: %v", r)
		}
	}

	// The index scan must read far fewer pages than the (zone-pruning
	// disabled) full scan on this unordered heap.
	f.ResetStats()
	cur2, _ := e.IndexScan("Traces", []string{"t"}, pred, "t")
	drain(t, cur2)
	idxPages := f.Stats().PageReads

	f.ResetStats()
	cur3, _ := e.Scan("Traces", ScanOptions{Fields: []string{"t"}, Pred: pred, NoZonePrune: true})
	drain(t, cur3)
	fullPages := f.Stats().PageReads
	if idxPages*3 > fullPages {
		t.Errorf("index scan should be much cheaper: idx=%d full=%d pages", idxPages, fullPages)
	}
}

func TestIndexScanWithProjectionAndExtraPredicate(t *testing.T) {
	e, _, _ := setup(t, "rows(Traces)", 1000)
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	// Conjunct on a non-indexed field is post-filtered.
	pred, _ := algebra.ParsePredicate(`t >= 10 and t < 500 and id = "car-1"`)
	cur, err := e.IndexScan("Traces", []string{"t", "id"}, pred, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range got {
		if r[1].Str() != "car-1" {
			t.Fatalf("post-filter failed: %v", r)
		}
		if len(r) != 2 {
			t.Fatalf("projection width: %d", len(r))
		}
	}
}

func TestIndexErrors(t *testing.T) {
	e, _, _ := setup(t, "rows(Traces)", 100)
	if err := e.CreateIndex("Traces", "bogus"); err == nil {
		t.Error("indexing unknown field should fail")
	}
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("Traces", "t"); err == nil {
		t.Error("duplicate index should fail")
	}
	pred, _ := algebra.ParsePredicate("lat > 0")
	if _, err := e.IndexScan("Traces", nil, pred, "lat"); err == nil {
		t.Error("index scan without index should fail")
	}
	if _, err := e.IndexScan("Traces", nil, algebra.True, "t"); err == nil {
		t.Error("index scan without bounds should fail")
	}
	if err := e.DropIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("Traces", "t"); err == nil {
		t.Error("double drop should fail")
	}
	// Projected-away field cannot be indexed.
	e2, _, _ := setup(t, "project[lat,lon](Traces)", 100)
	if err := e2.CreateIndex("Traces", "t"); err == nil {
		t.Error("indexing dropped field should fail")
	}
}

func TestIndexSurvivesInsertDroppedOnReorg(t *testing.T) {
	e, _, _ := setup(t, "orderby[t](Traces)", 200)
	e.CreateIndex("Traces", "t")
	// Tail-only appends shift no positions in the main rendering: the index
	// survives and IndexScan scans the tail past its coverage.
	if err := e.Insert("Traces", traceRows(10)); err != nil {
		t.Fatal(err)
	}
	if idx, _ := e.Indexes("Traces"); len(idx) != 1 {
		t.Error("tail-only insert should not drop indexes")
	}
	pred, _ := algebra.ParsePredicate("t >= 0 and t < 5")
	cur, err := e.IndexScan("Traces", []string{"t"}, pred, "t")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	// 200 indexed rows + 10 tail rows, traceRows assigns t = i in order:
	// t in [0,5) matches 5 rows from the main rendering and 5 from the tail.
	if len(got) != 10 {
		t.Errorf("index scan over main+tail: got %d rows, want 10", len(got))
	}
	// Rewrites shift positions; the index must go.
	if err := e.Reorganize("Traces"); err != nil {
		t.Fatal(err)
	}
	if idx, _ := e.Indexes("Traces"); len(idx) != 0 {
		t.Error("reorganize should drop indexes")
	}
}

func TestIndexOnStringField(t *testing.T) {
	e, _, rows := setup(t, "rows(Traces)", 600)
	if err := e.CreateIndex("Traces", "id"); err != nil {
		t.Fatal(err)
	}
	pred, _ := algebra.ParsePredicate(`id = "car-2"`)
	cur, err := e.IndexScan("Traces", nil, pred, "id")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	want := 0
	for _, r := range rows {
		if r[3].Str() == "car-2" {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("string index: got %d want %d", len(got), want)
	}
}

// TestIndexScanPagesFlatUnderIngest: the pages an index lookup reads do not
// grow as tails and runs accumulate past the index's coverage — those parts
// are pruned like a scan's, not walked row by row — and the rows equal the
// predicate scan's.
func TestIndexScanPagesFlatUnderIngest(t *testing.T) {
	e, f, _ := setup(t, "leveled[4](chunk[256](orderby[t](Traces)))", 5000)
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	pred, _ := algebra.ParsePredicate("t = 1234")
	var first uint64
	for round := 0; round < 4; round++ {
		if round > 0 {
			insertBatches(t, e, 10, 256, 10000*round)
			if round%2 == 0 {
				if err := e.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.ResetStats()
		cur, err := e.IndexScan("Traces", nil, pred, "t")
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, cur)
		pages := f.Stats().PageReads
		scan, err := e.Scan("Traces", ScanOptions{Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		requireRows(t, fmt.Sprintf("round %d", round), got, drain(t, scan))
		if len(got) != 1 {
			t.Fatalf("round %d: %d rows, want 1", round, len(got))
		}
		if round == 0 {
			first = pages
		} else if pages != first {
			t.Errorf("round %d: lookup read %d pages, %d before any insert", round, pages, first)
		}
	}
}

// indexPred draws a range on field — open or strict at each end, sometimes
// one-sided or an equality — plus, half the time, a conjunct on a field the
// index does not cover. A third of the numeric bounds take the other numeric
// kind: a Float literal (integral or not) on the Int field t, an Int literal
// on the Float fields lat and lon (whose values lie within one unit, so some
// are equal to none and others bound the whole column). floats holds each
// Float field's values.
func indexPred(r *rand.Rand, field string, floats map[string][]float64) algebra.Predicate {
	var lo, hi value.Value
	switch field {
	case "t":
		a, b := r.Intn(2200), r.Intn(600)
		lo, hi = value.NewInt(int64(a)), value.NewInt(int64(a+b))
		if r.Intn(3) == 0 {
			lo, hi = value.NewFloat(float64(a)-0.5*float64(r.Intn(2))), value.NewFloat(float64(a+b)+0.5)
		}
	case "lat", "lon":
		vals := floats[field]
		a, b := vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]
		lo, hi = value.NewFloat(min(a, b)), value.NewFloat(max(a, b))
		switch r.Intn(6) {
		case 0:
			lo = value.NewInt(int64(math.Floor(lo.Float())))
		case 1:
			hi = value.NewInt(int64(math.Ceil(hi.Float())))
		}
	default:
		a, b := r.Intn(5), r.Intn(5)
		lo, hi = value.NewString(fmt.Sprintf("car-%d", min(a, b))), value.NewString(fmt.Sprintf("car-%d", max(a, b)))
	}
	p := algebra.True
	switch r.Intn(5) {
	case 0:
		p = p.And(field, algebra.OpEq, lo)
	case 1:
		p = p.And(field, []algebra.CmpOp{algebra.OpGe, algebra.OpGt}[r.Intn(2)], lo)
	case 2:
		p = p.And(field, []algebra.CmpOp{algebra.OpLe, algebra.OpLt}[r.Intn(2)], hi)
	default:
		p = p.And(field, []algebra.CmpOp{algebra.OpGe, algebra.OpGt}[r.Intn(2)], lo).
			And(field, []algebra.CmpOp{algebra.OpLe, algebra.OpLt}[r.Intn(2)], hi)
	}
	if r.Intn(2) == 0 {
		if field == "id" {
			p = p.And("t", algebra.OpLt, value.NewInt(int64(r.Intn(2200))))
		} else {
			p = p.And("id", algebra.OpNe, value.NewString("car-2"))
		}
	}
	return p
}

// TestIndexScanDifferential: IndexScan returns exactly the predicate scan's
// rows in the same order, across layouts (a heap, sorted, a non-first column
// of a column layout, dictionary-coded, both compaction policies), part
// mixes (main only; main, runs and tails; inserts only) and the moment the
// index was built (before the inserts, after them, after a Compact). An
// index flip dropped must be refused, not answered. The loaded rows of the
// Float index's case hold −0, +0 and NaN, which the tree must order as
// value.CompareFloats does (−0 == +0, NaN below −Inf) under ranges bounded
// below and above.
func TestIndexScanDifferential(t *testing.T) {
	layouts := []struct{ expr, field string }{
		{"chunk[64](rows(Traces))", "t"},
		{"chunk[64](orderby[t](Traces))", "t"},
		{"chunk[64](cols(orderby[lon](Traces)))", "lon"},
		{"chunk[64](rows(Traces))", "lat"},
		{"chunk[64](dict[id](Traces))", "id"},
		{"leveled[2](chunk[32](orderby[t](Traces)))", "t"},
		{"sizetiered[2](chunk[64](rows(Traces)))", "t"},
	}
	floats := map[string][]float64{}
	for _, row := range traceRows(400) {
		floats["lat"] = append(floats["lat"], row[1].Float())
		floats["lon"] = append(floats["lon"], row[2].Float())
	}
	// −0, +0 and NaN rows each in 64-row blocks of their own, so a lookup
	// that misses them cannot keep their block for another hit.
	special := traceRows(400)
	for i := 0; i < 60; i += 10 {
		special[i][1] = value.NewFloat(math.Copysign(0, -1))
		special[i+70][1] = value.NewFloat(0)
		special[i+330][1] = value.NewFloat(math.NaN())
	}
	zeroBound := func(op algebra.CmpOp, v float64) algebra.Predicate {
		return algebra.True.And("lat", op, value.NewFloat(v))
	}
	specialPreds := []algebra.Predicate{
		zeroBound(algebra.OpGe, 0).And("lat", algebra.OpLt, value.NewFloat(1)),
		zeroBound(algebra.OpEq, 0),
		zeroBound(algebra.OpLt, 0),
		zeroBound(algebra.OpLe, -1),
		zeroBound(algebra.OpGt, -1).And("lat", algebra.OpLe, value.NewFloat(math.Copysign(0, -1))),
		zeroBound(algebra.OpLe, math.NaN()),
	}
	r := rand.New(rand.NewSource(24))
	for _, l := range layouts {
		for _, mix := range []string{"main", "main+runs+tails", "inserts"} {
			for _, when := range []string{"before inserts", "after inserts", "after compact"} {
				t.Run(l.expr+"/"+mix+"/"+when, func(t *testing.T) {
					e, _, _ := newEngine(t)
					if err := e.Create("Traces", tracesSchema(), l.expr); err != nil {
						t.Fatal(err)
					}
					index := func(at string) {
						if at == when || mix == "main" && at == "before inserts" {
							if err := e.CreateIndex("Traces", l.field); err != nil {
								t.Fatal(err)
							}
						}
					}
					if mix != "inserts" {
						rows := traceRows(400)
						if l.field == "lat" {
							rows = special
						}
						if err := e.Load("Traces", rows); err != nil {
							t.Fatal(err)
						}
					}
					index("before inserts")
					if mix != "main" {
						insertBatches(t, e, 3, 50, 1000)
						index("after inserts")
						if err := e.Compact("Traces"); err != nil {
							t.Fatal(err)
						}
						index("after compact")
						insertBatches(t, e, 2, 50, 2000)
					}
					indexed, _ := e.Indexes("Traces")
					for trial := 0; trial < 10; trial++ {
						pred := indexPred(r, l.field, floats)
						if l.field == "lat" && trial < len(specialPreds) {
							pred = specialPreds[trial]
						}
						fields := [][]string{nil, {l.field}, {"lat", "id"}}[r.Intn(3)]
						cur, err := e.IndexScan("Traces", fields, pred, l.field)
						if len(indexed) == 0 {
							if err == nil {
								t.Fatal("IndexScan answered through an index flip dropped")
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						got := drain(t, cur)
						scan, err := e.Scan("Traces", ScanOptions{Fields: fields, Pred: pred})
						if err != nil {
							t.Fatal(err)
						}
						requireRows(t, fmt.Sprintf("pred=%q fields=%v", pred, fields), got, drain(t, scan))
					}
				})
			}
		}
	}
}
