package bench

import (
	"os"
	"testing"
)

// smallConfig keeps unit-test runs quick; the shape assertions below are
// scale invariant.
func smallConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(t.TempDir())
	cfg.N = 30_000
	cfg.Queries = 10
	cfg.GridCells = 32
	return cfg
}

// TestEnvClosesItsFiles holds newEnv/close to releasing every descriptor
// they open — the database file and its write-ahead log — on the success
// path; a leak would otherwise last until the GC ran finalizers.
func TestEnvClosesItsFiles(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(fds)
	}
	cfg := smallConfig(t)
	before := openFDs()
	for i := 0; i < 20; i++ {
		e, err := newEnv(cfg, "fds")
		if err != nil {
			t.Fatal(err)
		}
		e.close()
	}
	if after := openFDs(); after != before {
		t.Errorf("open descriptors: %d before 20 newEnv/close cycles, %d after", before, after)
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, err := Figure2(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results: %d", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	n1 := byName["N1 (raw + scan)"]
	n2 := byName["N2 (raw + drop column)"]
	n3 := byName["N3 (grid)"]
	n4 := byName["N4 (zcurve + delta)"]
	rt := byName["rtree"]

	// The figure's shape (who wins, by roughly what factor):
	// N1 > N2: dropping columns cuts the full scan.
	if !(n1.PagesQuery > n2.PagesQuery*1.5) {
		t.Errorf("N1 (%0.f) should be well above N2 (%0.f)", n1.PagesQuery, n2.PagesQuery)
	}
	// N2 >> N3: gridding prunes to ~the query area — the two-orders-of-
	// magnitude step of the paper (scaled: at least 10x here).
	if !(n2.PagesQuery > n3.PagesQuery*10) {
		t.Errorf("N2 (%0.f) should be >10x N3 (%0.f)", n2.PagesQuery, n3.PagesQuery)
	}
	// N3 > N4: delta compression reduces pages further.
	if !(n3.PagesQuery > n4.PagesQuery*1.2) {
		t.Errorf("N3 (%0.f) should be above N4 (%0.f)", n3.PagesQuery, n4.PagesQuery)
	}
	// Grid beats the R-tree; R-tree beats the full scans.
	if !(rt.PagesQuery > n3.PagesQuery) {
		t.Errorf("rtree (%0.f) should be above N3 (%0.f)", rt.PagesQuery, n3.PagesQuery)
	}
	if !(rt.PagesQuery < n2.PagesQuery) {
		t.Errorf("rtree (%0.f) should be below N2 (%0.f)", rt.PagesQuery, n2.PagesQuery)
	}
	// All layouts return the same result rows.
	for _, r := range results[1:] {
		if r.RowsQuery != results[0].RowsQuery {
			t.Errorf("%s returned %f rows, N1 returned %f", r.Name, r.RowsQuery, results[0].RowsQuery)
		}
	}
}

func TestCurveSeeksShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	// The curve effect needs a fine grid relative to query size (the
	// paper's cells are ~400 m², i.e. hundreds per axis).
	cfg.GridCells = 128
	results, err := CurveSeeks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	// The paper's claim: z-ordering "reduces the number of disk seeks
	// needed to fetch data in a given spatial region". On a fine grid the
	// row-major layout pays one seek per row of touched cells; the curves
	// keep the region contiguous.
	if byName["zorder"].SeeksQuery >= byName["rowmajor"].SeeksQuery {
		t.Errorf("zorder seeks (%f) should beat rowmajor (%f)",
			byName["zorder"].SeeksQuery, byName["rowmajor"].SeeksQuery)
	}
	if byName["hilbert"].SeeksQuery > byName["zorder"].SeeksQuery {
		t.Errorf("hilbert seeks (%f) should not exceed zorder (%f)",
			byName["hilbert"].SeeksQuery, byName["zorder"].SeeksQuery)
	}
	// Head travel shrinks too: nearby cells land nearby on disk.
	if byName["zorder"].SeekDist > byName["rowmajor"].SeekDist {
		t.Errorf("zorder seek distance (%f) should not exceed rowmajor (%f)",
			byName["zorder"].SeekDist, byName["rowmajor"].SeekDist)
	}
	// Pages are identical up to block packing: same cells are read.
	if byName["zorder"].PagesQuery > byName["rowmajor"].PagesQuery*1.2 {
		t.Errorf("curves should not change pages much: z=%f rm=%f",
			byName["zorder"].PagesQuery, byName["rowmajor"].PagesQuery)
	}
}

func TestFoldRenderCrossover(t *testing.T) {
	results := FoldRender([]int{500, 4000}, 50)
	if len(results) != 2 {
		t.Fatal("sizes")
	}
	// At 4000 rows the quadratic nested loop must lose clearly.
	last := results[len(results)-1]
	if last.NestedMs <= last.HashMs {
		t.Errorf("nested loop (%f ms) should be slower than hash (%f ms) at n=%d",
			last.NestedMs, last.HashMs, last.Rows)
	}
	if last.OutputRows != 50 {
		t.Errorf("fold output groups: %d", last.OutputRows)
	}
}

func TestRowVsColumnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	cfg.N = 20000
	results, err := RowVsColumn(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	// One column of eight: the column store should read ~1/8 the pages.
	if !(byName["rows"].PagesQuery > byName["cols"].PagesQuery*4) {
		t.Errorf("rows (%f) should be >4x cols (%f)",
			byName["rows"].PagesQuery, byName["cols"].PagesQuery)
	}
	// The hybrid (c0 grouped with c1) sits between.
	hybrid := byName["colgroup(c0,c1)"].PagesQuery
	if !(hybrid < byName["rows"].PagesQuery && hybrid > byName["cols"].PagesQuery*0.9) {
		t.Errorf("hybrid (%f) should sit between cols (%f) and rows (%f)",
			hybrid, byName["cols"].PagesQuery, byName["rows"].PagesQuery)
	}
}

func TestReorgShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, err := Reorg(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results: %d", len(results))
	}
	// Unorganized tails hurt query cost; reorganization repairs it.
	if !(results[1].PagesQuery > results[0].PagesQuery) {
		t.Errorf("tails (%f) should cost more than organized (%f)",
			results[1].PagesQuery, results[0].PagesQuery)
	}
	if !(results[2].PagesQuery < results[1].PagesQuery) {
		t.Errorf("reorganized (%f) should cost less than tails (%f)",
			results[2].PagesQuery, results[1].PagesQuery)
	}
	if results[2].ReorgMs <= 0 {
		t.Error("reorg time not measured")
	}
}
