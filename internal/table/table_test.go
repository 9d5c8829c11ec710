package table

import (
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/oracle"
	"rodentstore/internal/pager"
	"rodentstore/internal/transforms"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
	"rodentstore/internal/wal"
)

func newEngine(t testing.TB) (*Engine, *pager.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.rdnt")
	f, err := pager.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return engineOn(t, vfs.OS, path, f), f, path
}

// engineOn opens the write-ahead log beside the page file f, which lives at
// path on fs, and builds an engine over both from the catalog f holds,
// recovering what the log has: what a database open does. The log closes
// when t ends.
func engineOn(t testing.TB, fs vfs.FS, path string, f *pager.File) *Engine {
	t.Helper()
	log, err := wal.OpenAt(fs, path+".wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(f, log)
	e := mustEngine(t, f, cat, mgr)
	if _, err := mgr.Recover(); err != nil {
		t.Fatal(err)
	}
	return e
}

// mustEngine is NewEngine for tests, failing t on an error.
func mustEngine(t testing.TB, f *pager.File, cat *catalog.Catalog, mgr *txn.Manager) *Engine {
	t.Helper()
	e, err := NewEngine(f, cat, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func tracesSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "lat", Type: value.Float},
		value.Field{Name: "lon", Type: value.Float},
		value.Field{Name: "id", Type: value.Str},
	)
}

func traceRows(n int) []value.Row {
	r := rand.New(rand.NewSource(11))
	rows := make([]value.Row, n)
	lat, lon := 42.36, -71.09
	for i := range rows {
		lat += (r.Float64() - 0.5) * 1e-3
		lon += (r.Float64() - 0.5) * 1e-3
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewFloat(lat),
			value.NewFloat(lon),
			value.NewString([]string{"car-1", "car-2", "car-3"}[i%3]),
		}
	}
	return rows
}

func drain(t *testing.T, c *Cursor) []value.Row {
	t.Helper()
	var out []value.Row
	for {
		r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// rowKey builds a comparable key for multiset comparison.
func rowKey(r value.Row) string {
	s := ""
	for _, v := range r {
		s += v.String() + "|"
	}
	return s
}

func sameMultiset(t *testing.T, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d want %d", len(got), len(want))
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i], w[i] = rowKey(got[i]), rowKey(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("multiset mismatch at %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
}

func setup(t *testing.T, layoutExpr string, n int) (*Engine, *pager.File, []value.Row) {
	t.Helper()
	e, f, _ := newEngine(t)
	if err := e.Create("Traces", tracesSchema(), layoutExpr); err != nil {
		t.Fatal(err)
	}
	rows := traceRows(n)
	if err := e.Load("Traces", rows); err != nil {
		t.Fatal(err)
	}
	return e, f, rows
}

func TestLayoutsRoundtripFullScan(t *testing.T) {
	layouts := []string{
		"rows(Traces)",
		"cols(Traces)",
		"colgroup[lat,lon](Traces)",
		"orderby[t](Traces)",
		"groupby[id](Traces)",
		"orderby[t](groupby[id](Traces))",
		"chunk[100](rows(Traces))",
		"grid[lat,lon; 8,8](Traces)",
		"zorder(grid[lat,lon; 8,8](Traces))",
		"hilbert(grid[lat,lon; 8,8](Traces))",
		"delta[lat,lon](zorder(grid[lat,lon; 8,8](Traces)))",
		"dict[id](bitpack[t](rows(Traces)))",
	}
	for _, l := range layouts {
		t.Run(l, func(t *testing.T) {
			e, _, rows := setup(t, l, 500)
			// Request fields in logical order: layouts like colgroup store a
			// permuted schema, but projection restores the logical view.
			cur, err := e.Scan("Traces", ScanOptions{Fields: tracesSchema().Names()})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, cur)
			sameMultiset(t, got, rows)
		})
	}
}

func TestProjectedLayoutDropsFields(t *testing.T) {
	e, _, rows := setup(t, "project[lat,lon](orderby[t](Traces))", 300)
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) != len(rows) || len(got[0]) != 2 {
		t.Fatalf("projected scan shape: %d rows × %d cols", len(got), len(got[0]))
	}
	// Asking for a dropped field must fail with a clear error.
	if _, err := e.Scan("Traces", ScanOptions{Fields: []string{"id"}}); err == nil {
		t.Error("scan of dropped field should fail")
	}
}

func TestOrderedLayoutStreamsInOrder(t *testing.T) {
	e, _, _ := setup(t, "orderby[t desc](Traces)", 300)
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	for i := 1; i < len(got); i++ {
		if got[i][0].Int() > got[i-1][0].Int() {
			t.Fatal("not descending by t")
		}
	}
}

func TestPredicateScanMatchesBruteForce(t *testing.T) {
	layouts := []string{
		"rows(Traces)",
		"orderby[lat](Traces)",
		"zorder(grid[lat,lon; 8,8](Traces))",
		"cols(Traces)",
	}
	pred, err := algebra.ParsePredicate("lat >= 42.3595 and lat < 42.3605 and lon >= -71.0905 and lon < -71.0895")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		t.Run(l, func(t *testing.T) {
			e, _, rows := setup(t, l, 800)
			var want []value.Row
			schema := tracesSchema()
			for _, r := range rows {
				if oracle.Eval(pred, schema, r) {
					want = append(want, r)
				}
			}
			cur, err := e.Scan("Traces", ScanOptions{Pred: pred})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, cur)
			sameMultiset(t, got, want)
		})
	}
}

func TestGridPruningReadsFewerPages(t *testing.T) {
	pred, _ := algebra.ParsePredicate("lat >= 42.3598 and lat < 42.3602 and lon >= -71.0902 and lon < -71.0898")
	// Row layout: full scan.
	eRows, fRows, _ := setup(t, "chunk[64](rows(Traces))", 4000)
	fRows.ResetStats()
	cur, _ := eRows.Scan("Traces", ScanOptions{Pred: pred})
	drain(t, cur)
	fullPages := fRows.Stats().PageReads

	// Grid layout: prune to overlapping cells.
	eGrid, fGrid, _ := setup(t, "chunk[64](zorder(grid[lat,lon; 16,16](Traces)))", 4000)
	fGrid.ResetStats()
	cur2, _ := eGrid.Scan("Traces", ScanOptions{Pred: pred})
	drain(t, cur2)
	gridPages := fGrid.Stats().PageReads

	if gridPages == 0 || gridPages*4 > fullPages {
		t.Errorf("grid pruning ineffective: grid=%d full=%d pages", gridPages, fullPages)
	}
}

func TestColumnLayoutReadsFewerPagesForProjection(t *testing.T) {
	eRow, fRow, _ := setup(t, "rows(Traces)", 3000)
	fRow.ResetStats()
	cur, _ := eRow.Scan("Traces", ScanOptions{Fields: []string{"t"}})
	drain(t, cur)
	rowPages := fRow.Stats().PageReads

	eCol, fCol, _ := setup(t, "cols(Traces)", 3000)
	fCol.ResetStats()
	cur2, _ := eCol.Scan("Traces", ScanOptions{Fields: []string{"t"}})
	drain(t, cur2)
	colPages := fCol.Stats().PageReads

	if colPages*2 > rowPages {
		t.Errorf("column projection should read far fewer pages: col=%d row=%d", colPages, rowPages)
	}
}

func TestScanWithOrderMaterializes(t *testing.T) {
	e, _, rows := setup(t, "rows(Traces)", 200)
	cur, err := e.Scan("Traces", ScanOptions{Order: []algebra.OrderKey{{Field: "lat"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) != len(rows) {
		t.Fatalf("rows: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][1].Float() < got[i-1][1].Float() {
			t.Fatal("not sorted by lat")
		}
	}
}

func TestScanStoredOrderStreams(t *testing.T) {
	e, _, _ := setup(t, "orderby[t](Traces)", 200)
	cur, err := e.Scan("Traces", ScanOptions{Order: []algebra.OrderKey{{Field: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	for i := 1; i < len(got); i++ {
		if got[i][0].Int() < got[i-1][0].Int() {
			t.Fatal("not ascending")
		}
	}
}

func TestGetElementPositional(t *testing.T) {
	e, _, _ := setup(t, "orderby[t](Traces)", 300)
	cur, err := e.GetElement("Traces", nil, []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("next: %v %v", ok, err)
	}
	if r[0].Int() != 42 {
		t.Errorf("element 42 has t=%d", r[0].Int())
	}
	// next() continues in stored order (paper §4.1).
	r2, ok, _ := cur.Next()
	if !ok || r2[0].Int() != 43 {
		t.Errorf("next after getElement: %v", r2)
	}
	if _, err := e.GetElement("Traces", nil, []int64{999999}); err == nil {
		t.Error("out-of-range position should fail")
	}
}

func TestGetElementCell(t *testing.T) {
	e, _, rows := setup(t, "zorder(grid[lat,lon; 4,4](Traces))", 500)
	tab, _ := e.cat.Get("Traces")
	bounds := boundsOf(tab)
	// Find a cell that certainly has data: cell of row 0.
	cx := bounds[0].CellOf(rows[0][1].Float())
	cy := bounds[1].CellOf(rows[0][2].Float())
	cur, err := e.GetElement("Traces", nil, []int64{int64(cx), int64(cy)})
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("cell cursor empty: %v", err)
	}
	if bounds[0].CellOf(r[1].Float()) != cx || bounds[1].CellOf(r[2].Float()) != cy {
		t.Error("first row not in requested cell")
	}
	// Wrong arity.
	if _, err := e.GetElement("Traces", nil, []int64{1, 2, 3}); err == nil {
		t.Error("bad index arity should fail")
	}
	// Out-of-range cell.
	if _, err := e.GetElement("Traces", nil, []int64{99, 0}); err == nil {
		t.Error("cell index out of range should fail")
	}

	// Under chunk[8] a cell spans several blocks: the cursor starts at the
	// first and reads every row of the cell before the next cell's.
	e, _, _ = setup(t, "chunk[8](zorder(grid[lat,lon; 8,8](Traces)))", 2000)
	tab, _ = e.cat.Get("Traces")
	bounds = boundsOf(tab)
	// The first stretch of at least three blocks that share a cell.
	blocks := tab.Segments[0].Meta.Blocks
	occupied := make(map[uint64]bool)
	start, end := 0, 0
	for lo := 0; lo < len(blocks); {
		hi := lo + 1
		for hi < len(blocks) && blocks[hi].Cell == blocks[lo].Cell {
			hi++
		}
		occupied[blocks[lo].Cell] = true
		if end-start < 3 && hi-lo >= 3 {
			start, end = lo, hi
		}
		lo = hi
	}
	if end-start < 3 {
		t.Fatal("no cell spans three blocks")
	}
	cx, cy = int(blocks[start].Cell/8), int(blocks[start].Cell%8)
	cur, err = e.GetElement("Traces", nil, []int64{int64(cx), int64(cy)})
	if err != nil {
		t.Fatal(err)
	}
	inCell := 0
	for _, b := range blocks[start:end] {
		inCell += b.Rows
	}
	for i := 0; i <= inCell; i++ {
		r, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatalf("row %d of the cell's cursor: ok=%v, %v", i, ok, err)
		}
		in := bounds[0].CellOf(r[1].Float()) == cx && bounds[1].CellOf(r[2].Float()) == cy
		if in != (i < inCell) {
			t.Fatalf("row %d in cell (%d,%d): %v; the cell holds %d rows", i, cx, cy, in, inCell)
		}
	}
	// A cell no row falls in has no first block.
	empty := uint64(0)
	for occupied[empty] {
		empty++
	}
	if empty == 64 {
		t.Fatal("want a cell that holds no rows")
	}
	if _, err := e.GetElement("Traces", nil, []int64{int64(empty / 8), int64(empty % 8)}); err == nil || !strings.Contains(err.Error(), "holds no data") {
		t.Errorf("empty cell %d: %v", empty, err)
	}
}

func TestInsertAndScanMerge(t *testing.T) {
	e, _, rows := setup(t, "orderby[t](Traces)", 200)
	extra := traceRows(50)
	for i := range extra {
		extra[i][0] = value.NewInt(int64(1000 + i))
	}
	if err := e.Insert("Traces", extra); err != nil {
		t.Fatal(err)
	}
	cur, _ := e.Scan("Traces", ScanOptions{})
	got := drain(t, cur)
	sameMultiset(t, got, append(append([]value.Row{}, rows...), extra...))
	if n, _ := e.RowCount("Traces"); n != 250 {
		t.Errorf("row count: %d", n)
	}
}

func TestReorganizeMergesTails(t *testing.T) {
	e, _, rows := setup(t, "orderby[t](Traces)", 200)
	extra := traceRows(50)
	for i := range extra {
		extra[i][0] = value.NewInt(int64(1000 + i))
	}
	e.Insert("Traces", extra)
	if err := e.Reorganize("Traces"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if len(tab.Tails) != 0 {
		t.Error("tails not merged")
	}
	cur, _ := e.Scan("Traces", ScanOptions{})
	got := drain(t, cur)
	sameMultiset(t, got, append(append([]value.Row{}, rows...), extra...))
	// After reorganize the t-order covers the inserted rows too.
	for i := 1; i < len(got); i++ {
		if got[i][0].Int() < got[i-1][0].Int() {
			t.Fatal("not ordered after reorganize")
		}
	}
}

func TestAlterLayoutEager(t *testing.T) {
	e, _, rows := setup(t, "rows(Traces)", 300)
	if err := e.AlterLayout("Traces", "zorder(grid[lat,lon; 8,8](Traces))", ReorgEager); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if len(tab.GridBounds) != 2 || tab.NeedsReorg {
		t.Errorf("grid not rendered: %+v", tab.GridBounds)
	}
	cur, _ := e.Scan("Traces", ScanOptions{})
	sameMultiset(t, drain(t, cur), rows)
}

func TestAlterLayoutLazy(t *testing.T) {
	e, _, rows := setup(t, "rows(Traces)", 300)
	if err := e.AlterLayout("Traces", "orderby[lat](Traces)", ReorgLazy); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if !tab.NeedsReorg {
		t.Fatal("lazy alter should mark NeedsReorg")
	}
	// First scan triggers the reorganization.
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	sameMultiset(t, got, rows)
	for i := 1; i < len(got); i++ {
		if got[i][1].Float() < got[i-1][1].Float() {
			t.Fatal("lazy reorg did not apply ordering")
		}
	}
	tab, _ = e.cat.Get("Traces")
	if tab.NeedsReorg || tab.LayoutExpr != "orderby[lat](Traces)" {
		t.Errorf("reorg state: %+v", tab.NeedsReorg)
	}
}

func TestEstimateScanMatchesActual(t *testing.T) {
	layouts := []string{
		"rows(Traces)",
		"cols(Traces)",
		"zorder(grid[lat,lon; 8,8](Traces))",
	}
	pred, _ := algebra.ParsePredicate("lat >= 42.3598 and lat < 42.3602")
	for _, l := range layouts {
		t.Run(l, func(t *testing.T) {
			e, f, _ := newEngine(t)
			if err := e.Create("Traces", tracesSchema(), l); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("Traces", traceRows(2000)); err != nil {
				t.Fatal(err)
			}
			for _, opts := range []ScanOptions{{}, {Pred: pred}, {Fields: []string{"lat"}}} {
				est, err := e.EstimateScan("Traces", opts)
				if err != nil {
					t.Fatal(err)
				}
				f.ResetStats()
				cur, err := e.Scan("Traces", opts)
				if err != nil {
					t.Fatal(err)
				}
				drain(t, cur)
				actual := f.Stats().PageReads
				// Estimates count whole blocks; actual reads share boundary
				// pages, so the estimate may exceed actual by at most a page
				// per decoded segment.
				tab, _ := e.cat.Get("Traces")
				plan, err := e.planFor(tab, opts)
				if err != nil {
					t.Fatal(err)
				}
				segs := uint64(0)
				for _, p := range plan.parts {
					for _, r := range p.readers {
						if r != nil {
							segs++
						}
					}
				}
				if est.Pages < actual || est.Pages > actual+segs {
					t.Errorf("opts %+v: estimated %d pages, actual %d, %d decoded segments", opts, est.Pages, actual, segs)
				}
			}
		})
	}
}

// TestPruneConsultsEveryDecodedSegment: on a column layout a range on one
// column prunes the blocks of every decoded column — a lon range projecting
// lat reads only the blocks whose lon zone overlaps it — and EstimateScan
// prices that scan within a page per decoded segment.
func TestPruneConsultsEveryDecodedSegment(t *testing.T) {
	e, f, rows := setup(t, "chunk[64](cols(orderby[lon](Traces)))", 5000)
	lons := make([]float64, len(rows))
	for i, r := range rows {
		lons[i] = r[2].Float()
	}
	sort.Float64s(lons)
	lo, hi := lons[2500], lons[2560]
	pred := algebra.True.And("lon", algebra.OpGe, value.NewFloat(lo)).And("lon", algebra.OpLe, value.NewFloat(hi))
	opts := ScanOptions{Fields: []string{"lat"}, Pred: pred}

	// The distinct pages of the lat and lon blocks whose lon zone overlaps.
	tab, _ := e.cat.Get("Traces")
	var match []int
	for _, entry := range tab.Segments {
		if entry.Fields[0] != "lon" {
			continue
		}
		for bi, bm := range entry.Meta.Blocks {
			for _, z := range bm.Zones {
				if z.Field == "lon" && z.Max >= lo && z.Min <= hi {
					match = append(match, bi)
				}
			}
		}
	}
	payload := uint64(f.PayloadSize())
	pages := make(map[pager.PageID]bool)
	for _, entry := range tab.Segments {
		if entry.Fields[0] != "lat" && entry.Fields[0] != "lon" {
			continue
		}
		for _, bi := range match {
			bm := entry.Meta.Blocks[bi]
			for pg := bm.Off / payload; pg <= (bm.Off+uint64(bm.Len)-1)/payload; pg++ {
				pages[entry.Meta.ExtentStart+pager.PageID(pg)] = true
			}
		}
	}

	est, err := e.EstimateScan("Traces", opts)
	if err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	cur, err := e.Scan("Traces", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); len(got) != 61 {
		t.Errorf("%d rows, want 61", len(got))
	}
	actual := f.Stats().PageReads
	if actual > uint64(len(pages)) {
		t.Errorf("scan read %d pages; the %d matching blocks span %d", actual, len(match), len(pages))
	}
	if diff := int64(est.Pages) - int64(actual); diff < -2 || diff > 2 {
		t.Errorf("estimated %d pages, read %d", est.Pages, actual)
	}
}

// TestEstimateGet: the positional estimate covers what GetElement reads, in
// the main rendering, in a run, in a tail, and on a table built by Insert.
func TestEstimateGet(t *testing.T) {
	covers := func(e *Engine, f *pager.File, fields []string, pos int64) {
		t.Helper()
		est, err := e.EstimateGet("Traces", fields, []int64{pos})
		if err != nil {
			t.Fatal(err)
		}
		f.ResetStats()
		cur, err := e.GetElement("Traces", fields, []int64{pos})
		if err != nil {
			t.Fatal(err)
		}
		cur.Next()
		if actual := f.Stats().PageReads; actual == 0 || est.Pages < actual {
			t.Errorf("position %d: estimate %d pages, actual %d", pos, est.Pages, actual)
		}
	}
	e, f, _ := setup(t, "cols(Traces)", 2000)
	covers(e, f, []string{"lat"}, 1500)

	// Main 0..499, a run 500..1099, a tail 1100..1399.
	e, f, _ = setup(t, "sizetiered[4](cols(Traces))", 500)
	insertBatches(t, e, 2, 300, 1000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	insertBatches(t, e, 1, 300, 5000)
	covers(e, f, nil, 600)
	covers(e, f, []string{"lat"}, 1200)

	e, f, _ = newEngine(t)
	if err := e.Create("Traces", tracesSchema(), "cols(Traces)"); err != nil {
		t.Fatal(err)
	}
	insertBatches(t, e, 2, 200, 0)
	covers(e, f, []string{"lat"}, 250)
}

func TestOrderListAndGridOrder(t *testing.T) {
	e, _, _ := setup(t, "orderby[t,id desc](Traces)", 100)
	orders, err := e.OrderList("Traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != 1 || orders[0][0].Field != "t" || !orders[0][1].Desc {
		t.Errorf("orders: %+v", orders)
	}
	if g, _ := e.GridOrder("Traces"); g != "" {
		t.Errorf("ungridded GridOrder: %q", g)
	}

	e2, _, _ := setup(t, "zorder(grid[lat,lon; 8,8](Traces))", 100)
	if g, _ := e2.GridOrder("Traces"); g != "zorder(lat,lon)" {
		t.Errorf("GridOrder: %q", g)
	}
	orders2, _ := e2.OrderList("Traces")
	if len(orders2) != 0 {
		t.Errorf("grid table should expose no row orders: %+v", orders2)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := ""
	var rows []value.Row
	{
		e, f, p := newEngine(t)
		path = p
		e.Create("Traces", tracesSchema(), "zorder(grid[lat,lon; 8,8](Traces))")
		rows = traceRows(400)
		if err := e.Load("Traces", rows); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	f, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := engineOn(t, vfs.OS, path, f)
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, drain(t, cur), rows)
}

func TestFoldedLayoutScan(t *testing.T) {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "area", Type: value.Int},
		value.Field{Name: "zip", Type: value.Int},
	)
	if err := e.Create("Areas", schema, "fold[zip; area](Areas)"); err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewInt(617), value.NewInt(2139)},
		{value.NewInt(212), value.NewInt(10001)},
		{value.NewInt(617), value.NewInt(2142)},
	}
	if err := e.Load("Areas", rows); err != nil {
		t.Fatal(err)
	}
	cur, err := e.Scan("Areas", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) != 2 {
		t.Fatalf("folded groups: %d", len(got))
	}
	if got[0][0].Int() != 617 || got[0][1].Len() != 2 {
		t.Errorf("group 0: %v", got[0])
	}
	// Folded layouts reject Insert (reorganize-only).
	if err := e.Insert("Areas", rows[:1]); err == nil {
		t.Error("insert into folded layout should fail")
	}
}

func TestSelectLayoutFiltersAtLoad(t *testing.T) {
	e, _, rows := setup(t, "select[lat >= 42.36](Traces)", 300)
	cur, _ := e.Scan("Traces", ScanOptions{})
	got := drain(t, cur)
	want := 0
	for _, r := range rows {
		if r[1].Float() >= 42.36 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("select layout stored %d rows, want %d", len(got), want)
	}
}

func TestCreateErrors(t *testing.T) {
	e, _, _ := newEngine(t)
	s := tracesSchema()
	if err := e.Create("Traces", s, "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Create("Traces", s, "rows(Traces)"); err == nil {
		t.Error("duplicate create should fail")
	}
	if err := e.Create("Other", s, "rows(Traces)"); err == nil {
		t.Error("layout for wrong table should fail")
	}
	if err := e.Create("Bad", s, "this is not algebra ("); err == nil {
		t.Error("unparseable layout should fail")
	}
	if err := e.Create("Bad2", s, "project[bogus](Bad2)"); err == nil {
		t.Error("invalid layout should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	e, _, _ := newEngine(t)
	e.Create("Traces", tracesSchema(), "rows(Traces)")
	bad := []value.Row{{value.NewInt(1)}}
	if err := e.Load("Traces", bad); err == nil {
		t.Error("arity mismatch should fail")
	}
	good := traceRows(10)
	if err := e.Load("Traces", good); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", good); err == nil {
		t.Error("double load should fail")
	}
	if err := e.Load("Missing", good); err == nil {
		t.Error("load into missing table should fail")
	}
}

func TestDropFreesPages(t *testing.T) {
	e, f, _ := setup(t, "rows(Traces)", 2000)
	used := f.NumPages()
	if err := e.Drop("Traces"); err != nil {
		t.Fatal(err)
	}
	if got := f.NumPages(); got >= used {
		t.Errorf("drop did not free pages: %d -> %d", used, got)
	}
	if _, err := e.Scan("Traces", ScanOptions{}); err == nil {
		t.Error("scan of dropped table should fail")
	}
}

// TestFoldMatchesAlgorithm1 holds the engine's fold rendering to the paper's
// Algorithm 1 (transforms.FoldNestedLoop, the reference implementation).
func TestFoldMatchesAlgorithm1(t *testing.T) {
	schema := value.MustSchema(
		value.Field{Name: "area", Type: value.Int},
		value.Field{Name: "zip", Type: value.Int},
	)
	rows := make([]value.Row, 200)
	r := rand.New(rand.NewSource(5))
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(r.Intn(10))), value.NewInt(int64(r.Intn(100000)))}
	}
	e, _, _ := newEngine(t)
	e.Create("Areas", schema, "fold[zip; area](Areas)")
	if err := e.Load("Areas", rows); err != nil {
		t.Fatal(err)
	}
	cur, err := e.Scan("Areas", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	want, err := transforms.FoldNestedLoop(transforms.Relation{Schema: schema, Rows: rows}, []string{"zip"}, []string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("group counts differ: %d vs %d", len(got), len(want.Rows))
	}
	for i := range got {
		if rowKey(got[i]) != rowKey(want.Rows[i]) {
			t.Fatalf("row %d differs from Algorithm 1", i)
		}
	}
}
