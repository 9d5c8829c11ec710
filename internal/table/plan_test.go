package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

// oraclePlanBlocks is the per-block rule planScan selected blocks by before
// it planned a gridded part one cell run at a time, kept as the reference
// the planner is compared against: every block of every part, its cell
// decoded with CellCoords and its zone maps tested, for each decoded
// segment.
func oraclePlanBlocks(tab *catalog.Table, parts []*part, pred algebra.Predicate, noZone bool) []blockRef {
	var out []blockRef
	if pred.IsTrue() {
		for pi, p := range parts {
			for bi := range p.entries[firstReadSeg(p)].Meta.Blocks {
				out = append(out, blockRef{pi, bi})
			}
		}
		return out
	}
	bounds := boundsOf(tab)
	type dimRange struct {
		lo, hi int
		active bool
	}
	dimRanges := make([]dimRange, len(bounds))
	for d, b := range bounds {
		lo, hi, _, _, found := pred.Bounds(b.Field)
		if !found {
			continue
		}
		cl, ch := 0, b.Cells-1
		if !lo.IsNull() {
			cl = b.CellOf(lo.Float())
		}
		if !hi.IsNull() {
			ch = b.CellOf(hi.Float())
		}
		dimRanges[d] = dimRange{lo: cl, hi: ch, active: true}
	}
	type zbound struct {
		field  string
		lo, hi value.Value
	}
	var zbounds []zbound
	if !noZone {
		for _, f := range pred.Fields() {
			if lo, hi, _, _, found := pred.Bounds(f); found {
				zbounds = append(zbounds, zbound{f, lo, hi})
			}
		}
	}
	excludes := func(bm segment.BlockMeta) bool {
		if bm.Cell != segment.NoCell && len(bounds) > 0 {
			coords := transforms.CellCoords(bm.Cell, bounds)
			for d, dr := range dimRanges {
				if dr.active && (coords[d] < dr.lo || coords[d] > dr.hi) {
					return true
				}
			}
		}
		for _, zb := range zbounds {
			for _, z := range bm.Zones {
				if z.Field != zb.field {
					continue
				}
				if !zb.lo.IsNull() && z.Max < zb.lo.Float() {
					return true
				}
				if !zb.hi.IsNull() && z.Min > zb.hi.Float() {
					return true
				}
			}
		}
		return false
	}
	for pi, p := range parts {
	blocks:
		for bi := range p.entries[firstReadSeg(p)].Meta.Blocks {
			for si, r := range p.readers {
				if r != nil && excludes(p.entries[si].Meta.Blocks[bi]) {
					continue blocks
				}
			}
			out = append(out, blockRef{pi, bi})
		}
	}
	return out
}

// planWindows is a set of predicates over the traces schema: random windows
// over one to three of t, lat and lon, then one-sided, degenerate,
// out-of-range, NaN and non-numeric bounds.
func planWindows(rows []value.Row, n int) []algebra.Predicate {
	r := rand.New(rand.NewSource(7))
	fields := []string{"t", "lat", "lon"}
	col := map[string]int{"t": 0, "lat": 1, "lon": 2}
	var preds []algebra.Predicate
	for range n {
		p := algebra.True
		for _, f := range fields {
			if r.Intn(3) == 0 {
				continue
			}
			a, b := rows[r.Intn(len(rows))][col[f]], rows[r.Intn(len(rows))][col[f]]
			if value.Compare(a, b) > 0 {
				a, b = b, a
			}
			p = p.And(f, []algebra.CmpOp{algebra.OpGe, algebra.OpGt}[r.Intn(2)], a)
			p = p.And(f, []algebra.CmpOp{algebra.OpLe, algebra.OpLt}[r.Intn(2)], b)
		}
		preds = append(preds, p)
	}
	f := value.NewFloat
	lat, lon := rows[len(rows)/2][1].Float(), rows[len(rows)/3][2].Float()
	nan := math.NaN()
	return append(preds,
		algebra.True.And("lat", algebra.OpGe, f(lat)),
		algebra.True.And("lon", algebra.OpLt, f(lon)),
		algebra.True.And("lat", algebra.OpEq, f(lat)),
		algebra.True.And("lat", algebra.OpGe, f(lat+1e-4)).And("lat", algebra.OpLe, f(lat)),
		algebra.True.And("lat", algebra.OpLe, f(1e300)),
		algebra.True.And("lat", algebra.OpLt, f(1e20)),
		algebra.True.And("lat", algebra.OpLe, f(-1e300)),
		algebra.True.And("lat", algebra.OpGe, f(math.Inf(-1))).And("lon", algebra.OpLe, f(math.Inf(1))),
		algebra.True.And("lon", algebra.OpGe, f(-1e300)).And("lon", algebra.OpLe, f(1e300)),
		algebra.True.And("lon", algebra.OpGe, f(1e300)),
		algebra.True.And("t", algebra.OpGe, value.NewInt(math.MaxInt64)),
		algebra.True.And("t", algebra.OpLe, value.NewInt(math.MinInt64)),
		algebra.True.And("lat", algebra.OpGe, f(nan)),
		algebra.True.And("lon", algebra.OpLe, f(nan)).And("lat", algebra.OpGe, f(lat)),
		algebra.True.And("id", algebra.OpEq, value.NewString("car-2")).And("lat", algebra.OpLe, f(lat)),
		algebra.True.And("id", algebra.OpGe, value.NewString("car-3")),
	)
}

// TestPlanMatchesPerBlockOracle: planScan keeps the blocks the per-block
// rule keeps, in the same order, over gridded layouts of one to three
// dimensions on each curve, with chunk[k] splitting cells across blocks,
// with and without zone pruning, before and after Insert adds ungridded
// tails beside the gridded main part, and after a reopen decodes the
// catalog (cell runs are derived, not stored, so both the writer and the
// decoder must cut them).
func TestPlanMatchesPerBlockOracle(t *testing.T) {
	layouts := []string{
		"grid[lat; 16](Traces)",
		"chunk[8](grid[lat,lon; 8,8](Traces))",
		"chunk[8](rowmajor(grid[lat,lon; 8,8](Traces)))",
		"chunk[8](zorder(grid[lat,lon; 8,8](Traces)))",
		"chunk[8](hilbert(grid[lat,lon; 8,8](Traces)))",
		"chunk[8](zorder(grid[t,lat,lon; 4,4,4](Traces)))",
		"chunk[16](cols(zorder(grid[lat,lon; 8,8](Traces))))",
		"chunk[16](delta[lat,lon](zorder(grid[lat,lon; 8,8](Traces))))",
	}
	for _, l := range layouts {
		t.Run(l, func(t *testing.T) {
			e, f, path := newEngine(t)
			if err := e.Create("Traces", tracesSchema(), l); err != nil {
				t.Fatal(err)
			}
			rows := traceRows(2000)
			if err := e.Load("Traces", rows); err != nil {
				t.Fatal(err)
			}
			preds := planWindows(rows, 60)
			check := func(e *Engine, stage string) {
				t.Helper()
				tab, err := e.cat.Get("Traces")
				if err != nil {
					t.Fatal(err)
				}
				for _, pred := range preds {
					for _, noZone := range []bool{false, true} {
						plan, err := e.planScan(tab, tab.Parts(), []string{"lat"}, pred, storedScanOpts{noZone: noZone})
						if err != nil {
							t.Fatal(err)
						}
						want := oraclePlanBlocks(tab, plan.parts, pred, noZone)
						if !slices.Equal(plan.blocks, want) {
							t.Fatalf("%s, %s, noZone=%v: plan keeps %d blocks %v, per-block rule %d %v",
								stage, pred, noZone, len(plan.blocks), plan.blocks, len(want), want)
						}
					}
				}
			}
			check(e, "loaded")
			insertBatches(t, e, 2, 150, 5000)
			check(e, "with tails")
			// The checkpoint persists the buffered tails, so the reopened
			// engine decodes them from the catalog.
			if err := e.mgr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check(engineOn(t, vfs.OS, path, f), "reopened")
		})
	}
}

// TestGridBoundFarOutsideAdmitsEveryCell: a bound far beyond the grid admits
// every cell on its side, which holds only if CellOf clamps before it
// converts to int (the conversion overflows for such a bound).
func TestGridBoundFarOutsideAdmitsEveryCell(t *testing.T) {
	e, _, rows := setup(t, "chunk[8](grid[lat,lon; 8,8](Traces))", 2000)
	f := value.NewFloat
	for _, pred := range []algebra.Predicate{
		algebra.True.And("lat", algebra.OpLe, f(1e300)),
		algebra.True.And("lat", algebra.OpLt, f(1e20)),
		algebra.True.And("lon", algebra.OpGe, f(-1e300)).And("lon", algebra.OpLe, f(1e300)),
	} {
		cur, err := e.Scan("Traces", ScanOptions{Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, cur); len(got) != len(rows) {
			t.Errorf("%s: %d rows, want %d", pred, len(got), len(rows))
		}
	}
}

// TestPlanAllocationsFlatInRejectedBlocks: planning a window allocates the
// same on a gridded table with four times the rejected blocks — nothing
// per block the grid prunes.
func TestPlanAllocationsFlatInRejectedBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	schema := value.MustSchema(value.Field{Name: "x", Type: value.Int}, value.Field{Name: "y", Type: value.Int})
	pred := algebra.True.And("x", algebra.OpGe, value.NewInt(2)).And("x", algebra.OpLe, value.NewInt(5))
	plan := func(cells int) (allocs float64, kept int) {
		e, _, _ := newEngine(t)
		if err := e.Create("G", schema, fmt.Sprintf("chunk[4](grid[x; %d](G))", cells)); err != nil {
			t.Fatal(err)
		}
		var rows []value.Row
		for x := range cells {
			for y := range 8 {
				rows = append(rows, value.Row{value.NewInt(int64(x)), value.NewInt(int64(y))})
			}
		}
		if err := e.Load("G", rows); err != nil {
			t.Fatal(err)
		}
		tab, _ := e.cat.Get("G")
		p, err := e.planScan(tab, tab.Parts(), nil, pred, storedScanOpts{})
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := e.planScan(tab, tab.Parts(), nil, pred, storedScanOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(p.blocks)
	}
	small, keptSmall := plan(64)
	large, keptLarge := plan(256)
	if keptSmall != 8 || keptLarge != keptSmall {
		t.Fatalf("kept %d and %d blocks, want 8 on both", keptSmall, keptLarge)
	}
	if large != small {
		t.Errorf("planning allocates %.0f times over 504 rejected blocks, %.0f over 120", large, small)
	}
}
