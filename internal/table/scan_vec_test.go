package table

import (
	"fmt"
	"math/rand"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// vecSchema is the differential-test schema: one column per vectorizable
// kind plus spatial floats for grid layouts.
func vecSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "b", Type: value.Bool},
		value.Field{Name: "k", Type: value.Bytes},
	)
}

func vecRows(r *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(r.Intn(7))),
			value.NewFloat(r.Float64() * 100),
			value.NewFloat(r.Float64() * 100),
			value.NewString(fmt.Sprintf("s%d", r.Intn(5))),
			value.NewBool(r.Intn(2) == 0),
			value.NewBytes([]byte{'k', byte(r.Intn(9))}),
		}
	}
	return rows
}

// vecLayouts samples the layout space: plain rows, pure columns, column
// groups, ordered, gridded, and codec-compressed variants.
var vecLayouts = []string{
	"chunk[64](rows(T))",
	"chunk[64](cols(T))",
	"chunk[64](colgroup[t,a](T))",
	"chunk[64](orderby[t](rows(T)))",
	"chunk[64](zorder(grid[x,y; 8,8](rows(T))))",
	"chunk[64](delta[x,y](zorder(grid[x,y; 8,8](rows(T)))))",
	"chunk[64](dict[s](rle[a](delta[t](cols(T)))))",
	"chunk[64](bitpack[a](rows(T)))",
	// Dictionary-form vectors, Str and Bytes, column- and row-major.
	"chunk[64](dict[s,k](cols(T)))",
	"chunk[64](dict[k](dict[s](orderby[t](rows(T)))))",
}

// dictPreds are the string comparisons every layout answers besides the
// random ones; on the dict layouts they run once per dictionary entry and
// select by code. "s2x" and {'k', 200} are in no dictionary.
var dictPreds = []algebra.Predicate{
	algebra.True.And("s", algebra.OpEq, value.NewString("s3")),
	algebra.True.And("s", algebra.OpLt, value.NewString("s2")),
	algebra.True.And("s", algebra.OpGe, value.NewString("s2x")),
	algebra.True.And("s", algebra.OpEq, value.NewString("s2x")),
	algebra.True.And("k", algebra.OpEq, value.NewBytes([]byte{'k', 4})),
	algebra.True.And("k", algebra.OpLt, value.NewBytes([]byte{'k', 200})),
	algebra.True.And("k", algebra.OpGe, value.NewBytes([]byte{'k', 7})).And("s", algebra.OpNe, value.NewString("s0")),
	algebra.True.And("x", algebra.OpLt, value.NewFloat(2)).And("k", algebra.OpGt, value.NewBytes([]byte{'k', 1})),
}

// vecPreds samples the predicate space (conjunctions over every kind).
func vecPred(r *rand.Rand) algebra.Predicate {
	ops := []algebra.CmpOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}
	p := algebra.True
	for n := r.Intn(3); n >= 0; n-- {
		op := ops[r.Intn(len(ops))]
		switch r.Intn(6) {
		case 0:
			p = p.And("t", op, value.NewInt(int64(r.Intn(3000))))
		case 1:
			p = p.And("a", op, value.NewFloat(float64(r.Intn(7))-0.5)) // cross-numeric
		case 2:
			p = p.And("x", op, value.NewFloat(r.Float64()*100))
		case 3:
			p = p.And("s", op, value.NewString(fmt.Sprintf("s%d", r.Intn(5))))
		case 4:
			p = p.And("k", op, value.NewBytes([]byte{'k', byte(r.Intn(10))}))
		default:
			p = p.And("b", op, value.NewBool(r.Intn(2) == 0))
		}
	}
	return p
}

func vecProj(r *rand.Rand) []string {
	switch r.Intn(5) {
	case 0:
		return nil // all fields
	case 1:
		return []string{"x", "y"}
	case 2:
		return []string{"s", "t"}
	case 3:
		return []string{"k", "s", "x"}
	default:
		return []string{"a"}
	}
}

// TestScanDifferential is the differential property test of the block
// pipeline: across layouts, codecs, projections, predicates, tails and zone
// pruning, the executor with quarantine off and on must return exactly the
// boxed oracle's rows, whether drained with Next, with NextBatch, or with
// the two interleaved.
func TestScanDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	rows := vecRows(r, 3000)
	for _, layoutExpr := range vecLayouts {
		layoutExpr := layoutExpr
		t.Run(layoutExpr, func(t *testing.T) {
			e, _, _ := newEngine(t)
			if err := e.Create("T", vecSchema(), layoutExpr); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("T", rows[:2500]); err != nil {
				t.Fatal(err)
			}
			// Tail batches exercise the multi-part paths.
			if err := e.Insert("T", rows[2500:]); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 12+len(dictPreds); trial++ {
				base := ScanOptions{Fields: vecProj(r), Pred: vecPred(r), NoZonePrune: r.Intn(2) == 0}
				if trial >= 12 {
					base.Pred = dictPreds[trial-12]
				}
				want := oracleScan(t, e, "T", base)
				for vi, v := range scanVariants(base) {
					cur, err := e.Scan("T", v.opts)
					if err != nil {
						t.Fatal(err)
					}
					var got []value.Row
					drainMode := []string{"next", "batch", "mixed"}[(trial+vi)%3]
					switch drainMode {
					case "next":
						got = drain(t, cur)
					case "batch":
						got = drainBatches(t, cur)
					default:
						got = drainMixed(t, cur, int64(trial))
					}
					if q := cur.Report().Skipped; len(q) != 0 {
						t.Fatalf("clean data quarantined extents: %v", q)
					}
					cur.Close()
					requireRows(t, fmt.Sprintf("trial %d %s/%s pred=%q fields=%v noZone=%v",
						trial, v.name, drainMode, base.Pred, base.Fields, base.NoZonePrune), got, want)
				}
			}
		})
	}
}

// TestInterleavedNextAndNextBatch drains one cursor alternating Next and
// NextBatch under every executor variant, over several interleavings: the
// seams (a batch handed out whole, a batch Next has eaten into, a
// quarantine-free empty block) must lose and duplicate nothing.
func TestInterleavedNextAndNextBatch(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", vecSchema(), "chunk[64](rows(T))"); err != nil {
		t.Fatal(err)
	}
	rows := vecRows(rand.New(rand.NewSource(5)), 1000)
	if err := e.Load("T", rows[:800]); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("T", rows[800:]); err != nil {
		t.Fatal(err)
	}
	for _, base := range []ScanOptions{
		{},
		{Fields: []string{"s", "t"}, Pred: algebra.True.And("x", algebra.OpLt, value.NewFloat(30))},
	} {
		want := oracleScan(t, e, "T", base)
		for _, v := range scanVariants(base) {
			for seed := int64(1); seed <= 4; seed++ {
				cur, err := e.Scan("T", v.opts)
				if err != nil {
					t.Fatal(err)
				}
				got := drainMixed(t, cur, seed)
				cur.Close()
				requireRows(t, fmt.Sprintf("%s seed %d pred=%q", v.name, seed, base.Pred), got, want)
			}
		}
	}
}

// TestScanPagesMatchOracle checks the pipeline does not change I/O
// accounting: a serial scan reads the same pages in the same seek pattern
// as the boxed oracle's block-at-a-time View loop — the invariant the
// paper-figure experiments stand on.
func TestScanPagesMatchOracle(t *testing.T) {
	e, f, _ := newEngine(t)
	if err := e.Create("T", vecSchema(), "chunk[64](zorder(grid[x,y; 8,8](rows(T))))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", vecRows(rand.New(rand.NewSource(9)), 4000)); err != nil {
		t.Fatal(err)
	}
	opts := ScanOptions{Fields: []string{"x", "y"}, Pred: algebra.True.
		And("x", algebra.OpGe, value.NewFloat(20)).
		And("x", algebra.OpLt, value.NewFloat(40))}
	f.ResetStats()
	oracleScan(t, e, "T", opts)
	oracle := f.Stats()
	f.ResetStats()
	cur, err := e.Scan("T", opts)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, cur)
	cur.Close()
	got := f.Stats()
	if oracle.PageReads != got.PageReads || oracle.Seeks != got.Seeks {
		t.Fatalf("I/O accounting diverged: oracle %d pages/%d seeks, scan %d/%d",
			oracle.PageReads, oracle.Seeks, got.PageReads, got.Seeks)
	}
	if got.PageReads == 0 {
		t.Fatal("measurement read no pages")
	}
}
