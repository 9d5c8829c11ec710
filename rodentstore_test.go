package rodentstore_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rodentstore"
	"rodentstore/internal/cartel"
	"rodentstore/internal/vfs"
)

func newDB(t *testing.T, opts *rodentstore.Options) *rodentstore.DB {
	t.Helper()
	db, err := rodentstore.Create(filepath.Join(t.TempDir(), "test.rdnt"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func tracesFields() []rodentstore.Field {
	return []rodentstore.Field{
		{Name: "t", Type: rodentstore.Int},
		{Name: "lat", Type: rodentstore.Float},
		{Name: "lon", Type: rodentstore.Float},
		{Name: "id", Type: rodentstore.String},
	}
}

func loadTraces(t *testing.T, db *rodentstore.DB, layout string, n int) []rodentstore.Row {
	t.Helper()
	if err := db.CreateTable("Traces", tracesFields(), layout); err != nil {
		t.Fatal(err)
	}
	rows := cartel.Generate(cartel.DefaultConfig(n))
	if err := db.Load("Traces", rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestEndToEndQuickstart(t *testing.T) {
	db := newDB(t, nil)
	rows := loadTraces(t, db, "rows(Traces)", 1000)

	if got := db.Tables(); len(got) != 1 || got[0] != "Traces" {
		t.Errorf("tables: %v", got)
	}
	if n, _ := db.RowCount("Traces"); n != 1000 {
		t.Errorf("rows: %d", n)
	}
	if l, _ := db.LayoutOf("Traces"); l != "rows(Traces)" {
		t.Errorf("layout: %s", l)
	}
	fields, err := db.SchemaOf("Traces")
	if err != nil || len(fields) != 4 {
		t.Errorf("schema: %v %v", fields, err)
	}

	cur, err := db.Scan("Traces", rodentstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("scanned %d rows", len(got))
	}
}

func TestQueryWithWhereAndFields(t *testing.T) {
	db := newDB(t, nil)
	rows := loadTraces(t, db, "zorder(grid[lat,lon; 16,16](Traces))", 2000)

	where := "lat >= 42.355 and lat < 42.365 and lon >= -71.095 and lon < -71.085"
	cur, err := db.Scan("Traces", rodentstore.Query{Fields: []string{"lat", "lon"}, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cur.All()
	want := 0
	for _, r := range rows {
		lat, lon := r[1].Float(), r[2].Float()
		if lat >= 42.355 && lat < 42.365 && lon >= -71.095 && lon < -71.085 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("got %d rows, want %d", len(got), want)
	}
	if len(got) > 0 && len(got[0]) != 2 {
		t.Errorf("projection width: %d", len(got[0]))
	}
	// Bad predicates error cleanly.
	if _, err := db.Scan("Traces", rodentstore.Query{Where: "lat ~~ 3"}); err == nil {
		t.Error("bad where should fail")
	}
	if _, err := db.Scan("Traces", rodentstore.Query{OrderBy: "lat sideways"}); err == nil {
		t.Error("bad orderby should fail")
	}
}

func TestOrderByQuery(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "rows(Traces)", 500)
	cur, err := db.Scan("Traces", rodentstore.Query{OrderBy: "lat desc"})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cur.All()
	for i := 1; i < len(got); i++ {
		if got[i][1].Float() > got[i-1][1].Float() {
			t.Fatal("not descending")
		}
	}
}

func TestAggregateQuery(t *testing.T) {
	db := newDB(t, nil)
	rows := loadTraces(t, db, "chunk[64](rows(Traces))", 2000)

	// Global count with a predicate.
	where := "lat >= 42.35"
	cur, err := db.Scan("Traces", rodentstore.Query{
		Where:     where,
		Aggregate: &rodentstore.AggregateSpec{Aggs: []string{"count"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r[1].Float() >= 42.35 {
			want++
		}
	}
	if len(got) != 1 || got[0][0].Int() != int64(want) {
		t.Fatalf("count: got %v, want [[%d]]", got, want)
	}

	// Grouped sum over an expression, against a row-order oracle.
	spec := &rodentstore.AggregateSpec{
		GroupBy: []string{"id"},
		Aggs:    []string{"count", "sum(lat + lon) as span"},
	}
	grouped, err := db.Scan("Traces", rodentstore.Query{Aggregate: spec})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := grouped.All()
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]struct {
		n   int64
		sum float64
	}{}
	for _, r := range rows {
		acc := oracle[r[3].Str()]
		acc.n++
		acc.sum += r[1].Float() + r[2].Float()
		oracle[r[3].Str()] = acc
	}
	if len(groups) != len(oracle) {
		t.Fatalf("groups: got %d, want %d", len(groups), len(oracle))
	}
	for _, r := range groups {
		acc, ok := oracle[r[0].Str()]
		if !ok {
			t.Fatalf("unexpected group %v", r[0])
		}
		if r[1].Int() != acc.n {
			t.Errorf("group %v count: got %d, want %d", r[0], r[1].Int(), acc.n)
		}
		if diff := r[2].Float() - acc.sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("group %v sum: got %v, want %v", r[0], r[2].Float(), acc.sum)
		}
	}
	// Aggregate is mutually exclusive with Fields and OrderBy.
	if _, err := db.Scan("Traces", rodentstore.Query{
		Fields:    []string{"lat"},
		Aggregate: &rodentstore.AggregateSpec{Aggs: []string{"count"}},
	}); err == nil {
		t.Error("aggregate with fields should fail")
	}
	if _, err := db.Scan("Traces", rodentstore.Query{
		Aggregate: &rodentstore.AggregateSpec{Aggs: []string{"sum(nope)"}},
	}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestGetElementAPI(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "orderby[t](Traces)", 500)
	// The element at position 100 must equal the 101st row of a full scan
	// in stored order.
	scan, _ := db.Scan("Traces", rodentstore.Query{})
	all, _ := scan.All()
	cur, err := db.GetElement("Traces", nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, ok, _ := cur.Next()
	if !ok || r[0].Int() != all[100][0].Int() || r[3].Str() != all[100][3].Str() {
		t.Errorf("element 100: got %v want %v", r, all[100])
	}
}

func TestCostAPIs(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "zorder(grid[lat,lon; 16,16](Traces))", 3000)
	full, err := db.ScanCost("Traces", rodentstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := db.ScanCost("Traces", rodentstore.Query{
		Where: "lat >= 42.359 and lat < 42.361 and lon >= -71.091 and lon < -71.089",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pages >= full.Pages || sel.Ms >= full.Ms {
		t.Errorf("selective scan should be cheaper: %+v vs %+v", sel, full)
	}
	g, err := db.GetElementCost("Traces", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Pages == 0 || g.Pages > full.Pages {
		t.Errorf("getElement cost: %+v", g)
	}
}

func TestOrderListAPI(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "zorder(grid[lat,lon; 8,8](orderby[t](Traces)))", 200)
	orders, err := db.OrderList("Traces")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(orders, " | ")
	if !strings.Contains(joined, "zorder(lat,lon)") {
		t.Errorf("order list: %v", orders)
	}
}

func TestAlterLayoutAPI(t *testing.T) {
	db := newDB(t, nil)
	rows := loadTraces(t, db, "rows(Traces)", 400)
	if err := db.AlterLayout("Traces", "cols(Traces)", true); err != nil {
		t.Fatal(err)
	}
	if l, _ := db.LayoutOf("Traces"); l != "cols(Traces)" {
		t.Errorf("layout after alter: %s", l)
	}
	cur, _ := db.Scan("Traces", rodentstore.Query{})
	got, _ := cur.All()
	if len(got) != len(rows) {
		t.Errorf("rows after alter: %d", len(got))
	}
	if err := db.ValidateLayout("Traces", "project[bogus](Traces)"); err == nil {
		t.Error("invalid layout should fail validation")
	}
	if err := db.ValidateLayout("Traces", "rows(Other)"); err == nil {
		t.Error("wrong-table layout should fail validation")
	}
	if err := db.ValidateLayout("Traces", "delta[lat](rows(Traces))"); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
}

func TestInsertReorganizeAPI(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "orderby[t](Traces)", 300)
	extra := cartel.Generate(cartel.Config{N: 50, Cars: 2, StepDeg: 7e-5, TripLen: 100, Seed: 9})
	if err := db.Insert("Traces", extra); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RowCount("Traces"); n != 350 {
		t.Errorf("count: %d", n)
	}
	if err := db.Reorganize("Traces"); err != nil {
		t.Fatal(err)
	}
	cur, _ := db.Scan("Traces", rodentstore.Query{})
	got, _ := cur.All()
	if len(got) != 350 {
		t.Errorf("rows after reorganize: %d", len(got))
	}
}

func TestPersistenceAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.rdnt")
	db, err := rodentstore.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("Traces", tracesFields(), "delta[lat,lon](zorder(grid[lat,lon; 8,8](Traces)))")
	rows := cartel.Generate(cartel.DefaultConfig(500))
	db.Load("Traces", rows)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := rodentstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	cur, err := db2.Scan("Traces", rodentstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cur.All()
	if len(got) != len(rows) {
		t.Errorf("rows after reopen: %d", len(got))
	}
}

// TestClosedFileEndsAtAllocationCursor: a cleanly closed database file holds
// no preallocated slack, so its size is what it stores; it reopens, allocates
// and passes CheckIntegrity.
func TestClosedFileEndsAtAllocationCursor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trim.rdnt")
	// The header is magic (8 bytes), page size (u32), allocation cursor (u64).
	requireTrimmed := func() {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pageSize := int64(binary.LittleEndian.Uint32(raw[8:]))
		cursor := int64(binary.LittleEndian.Uint64(raw[12:]))
		if int64(len(raw)) != cursor*pageSize {
			t.Fatalf("closed file is %d bytes, want cursor %d x page size %d", len(raw), cursor, pageSize)
		}
	}
	db, err := rodentstore.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := loadTraces(t, db, "cols(Traces)", 5000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireTrimmed()

	db, err = rodentstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Traces", rows[:2000]); err != nil {
		t.Fatal(err)
	}
	rep, err := db.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity after reopen and insert: %v", rep.Issues)
	}
	if n, _ := db.RowCount("Traces"); n != 7000 {
		t.Errorf("rows: %d, want 7000", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireTrimmed()
}

// batchFields is the schema of the power-cut tests' table: each row names
// its insert batch and its place in it.
func batchFields() []rodentstore.Field {
	return []rodentstore.Field{{Name: "b", Type: rodentstore.Int}, {Name: "i", Type: rodentstore.Int}}
}

func batchRows(b, n int) []rodentstore.Row {
	rows := make([]rodentstore.Row, n)
	for i := range rows {
		rows[i] = rodentstore.Row{rodentstore.IntValue(int64(b)), rodentstore.IntValue(int64(i))}
	}
	return rows
}

// TestAcknowledgedInsertsSurvivePowerCut makes acknowledged inserts with
// the default options, cuts the power without a Close and reopens: every
// acknowledged batch is back, whole, under every crash mode.
func TestAcknowledgedInsertsSurvivePowerCut(t *testing.T) {
	const batches, size = 6, 20
	for _, mode := range []vfs.CrashMode{vfs.CrashDrop, vfs.CrashKeep, vfs.CrashTorn} {
		fs := vfs.NewFault(int64(mode) + 5)
		db, err := rodentstore.Create("db.rdnt", &rodentstore.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.CreateTable("B", batchFields(), "rows(B)"); err != nil {
			t.Fatal(err)
		}
		for b := range batches {
			if err := db.Insert("B", batchRows(b, size)); err != nil {
				t.Fatal(err)
			}
		}
		back, err := rodentstore.OpenWithOptions("db.rdnt", &rodentstore.Options{FS: vfs.NewFaultFromImages(1, fs.SnapshotCrash(mode))})
		if err != nil {
			t.Fatalf("mode %d: reopen: %v", mode, err)
		}
		cur, err := back.Scan("B", rodentstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]int)
		for _, r := range rows {
			got[r[0].Int()]++
		}
		for b := range batches {
			if got[int64(b)] != size {
				t.Errorf("mode %d: batch %d has %d of its %d acknowledged rows", mode, b, got[int64(b)], size)
			}
		}
		if len(rows) != batches*size {
			t.Errorf("mode %d: %d rows after the power cut, want %d", mode, len(rows), batches*size)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertSyncsOnlyTheLog counts fsyncs across small inserts that stay
// below every checkpoint trigger: an insert waits for the log's group-commit
// fsync and nothing else, so the page file is never synced.
func TestInsertSyncsOnlyTheLog(t *testing.T) {
	const inserts = 50
	fs := vfs.NewFault(3)
	db, err := rodentstore.Create("db.rdnt", &rodentstore.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("B", batchFields(), "rows(B)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	syncs := make(map[string]int)
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpSync {
			mu.Lock()
			syncs[op.Path]++
			mu.Unlock()
		}
		return vfs.OK
	}
	for b := range inserts {
		if err := db.Insert("B", batchRows(b, 4)); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject = nil
	if n := syncs["db.rdnt"]; n != 0 {
		t.Errorf("%d inserts synced the page file %d times, want 0", inserts, n)
	}
	if n := syncs["db.rdnt.wal"]; n != inserts {
		t.Errorf("%d serial inserts synced the log %d times, want one group commit each", inserts, n)
	}
	if len(syncs) > 2 {
		t.Errorf("syncs by file: %v", syncs)
	}
}

func TestBufferPoolOption(t *testing.T) {
	db := newDB(t, &rodentstore.Options{CachePages: 256})
	loadTraces(t, db, "rows(Traces)", 1000)
	// First scan cold, second warm: physical reads must not double.
	db.ResetIOStats()
	cur, _ := db.Scan("Traces", rodentstore.Query{})
	cur.All()
	cold := db.IOStats().PageReads
	cur2, _ := db.Scan("Traces", rodentstore.Query{})
	cur2.All()
	total := db.IOStats().PageReads
	if total >= cold*2 {
		t.Errorf("second scan not served from cache: cold=%d total=%d", cold, total)
	}
	if err := db.InvalidateCache(); err != nil {
		t.Fatal(err)
	}
	cur3, _ := db.Scan("Traces", rodentstore.Query{})
	cur3.All()
	if after := db.IOStats().PageReads; after <= total {
		t.Errorf("invalidated cache should hit disk again: %d -> %d", total, after)
	}
}

func TestAdviseAPI(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "rows(Traces)", 5000)
	advice, err := db.Advise("Traces", []rodentstore.WorkloadQuery{
		{
			Fields: []string{"lat", "lon"},
			Where:  "lat >= 42.35 and lat < 42.37 and lon >= -71.1 and lon < -71.08",
			Weight: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Layout == "" || len(advice.Alternatives) < 5 {
		t.Fatalf("advice: %+v", advice)
	}
	// The advice must be applicable.
	if err := db.ValidateLayout("Traces", advice.Layout); err != nil {
		t.Errorf("advised layout invalid: %v", err)
	}
	if err := db.AlterLayout("Traces", advice.Layout, true); err != nil {
		t.Errorf("advised layout failed to apply: %v", err)
	}
	cur, _ := db.Scan("Traces", rodentstore.Query{Fields: []string{"lat"}})
	got, _ := cur.All()
	if len(got) != 5000 {
		t.Errorf("rows after applying advice: %d", len(got))
	}
	// Advising an empty workload or table errors.
	if _, err := db.Advise("Traces", nil); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestValueConstructors(t *testing.T) {
	r := rodentstore.Row{
		rodentstore.IntValue(1),
		rodentstore.FloatValue(2.5),
		rodentstore.StringValue("x"),
		rodentstore.BytesValue([]byte{1}),
		rodentstore.BoolValue(true),
		rodentstore.Null(),
	}
	if r[0].Int() != 1 || r[1].Float() != 2.5 || r[2].Str() != "x" || !r[4].Bool() || !r[5].IsNull() {
		t.Error("constructors broken")
	}
}

func TestIndexAPI(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "rows(Traces)", 2000)
	if err := db.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	if idx, _ := db.Indexes("Traces"); len(idx) != 1 {
		t.Fatalf("indexes: %v", idx)
	}
	cur, err := db.IndexScan("Traces", rodentstore.Query{Where: "t >= 50 and t < 60"}, "t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := cur.All()
	if len(rows) == 0 {
		t.Fatal("no rows from index scan")
	}
	for _, r := range rows {
		if r[0].Int() < 50 || r[0].Int() >= 60 {
			t.Fatalf("row outside range: %v", r)
		}
	}
	// Compare against a plain scan: identical result multiset size.
	cur2, _ := db.Scan("Traces", rodentstore.Query{Where: "t >= 50 and t < 60"})
	plain, _ := cur2.All()
	if len(plain) != len(rows) {
		t.Errorf("index scan %d rows, plain scan %d", len(rows), len(plain))
	}
	if err := db.DropIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
}

// TestIndexScanRefusesWhatItCannotServe: IndexScan serves Fields and Where
// only. A query that also asks for an order, an aggregation or quarantine
// must be refused by name, not answered as if those fields were unset.
func TestIndexScanRefusesWhatItCannotServe(t *testing.T) {
	db := newDB(t, nil)
	loadTraces(t, db, "rows(Traces)", 500)
	if err := db.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	where := "t >= 50 and t < 60"
	for field, q := range map[string]rodentstore.Query{
		"OrderBy":    {Where: where, OrderBy: "t desc"},
		"Aggregate":  {Where: where, Aggregate: &rodentstore.AggregateSpec{Aggs: []string{"count"}}},
		"Quarantine": {Where: where, Quarantine: true},
	} {
		cur, err := db.IndexScan("Traces", q, "t")
		if err == nil {
			cur.Close()
			t.Fatalf("IndexScan with %s set succeeded", field)
		}
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("IndexScan with %s set: error %q does not name the field", field, err)
		}
	}
	cur, err := db.IndexScan("Traces", rodentstore.Query{Fields: []string{"t"}, Where: where}, "t")
	if err != nil {
		t.Fatalf("Fields and Where alone: %v", err)
	}
	cur.Close()
}

// TestPoolCoherentAcrossFoldAndReuse is the regression test for stale
// buffer-pool frames: a fold frees extents, a later insert reuses the pages
// through the pager, and a pool that missed the rewrite keeps serving the old
// frames ("compress: bad block header", "block holds 0 rows, metadata says
// 256"). A small pool over a leveled table takes durable inserts with
// background folds while readers scan acknowledged ranges. Every scan asks
// for an order the layout does not store, so it is materialized under the
// table's shared lock and cannot race a fold for its extents — whatever it
// reads wrong, it read from the pool.
func TestPoolCoherentAcrossFoldAndReuse(t *testing.T) {
	db := newDB(t, &rodentstore.Options{CachePages: 48, AutoMergeTails: 2})
	if err := db.CreateTable("Obs", tracesFields(), "leveled[2](chunk[64](orderby[t](Obs)))"); err != nil {
		t.Fatal(err)
	}
	const batch, batches = 64, 160
	latOf := func(ts int64) float64 { return 42 + float64(ts%1000)/1000 }
	var acked atomic.Int64 // every row with t < acked is acknowledged
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				hi := acked.Load()
				if hi == 0 {
					continue
				}
				lo := rng.Int63n(hi)
				if hi > lo+4*batch {
					hi = lo + 4*batch
				}
				cur, err := db.Scan("Obs", rodentstore.Query{
					Where:   fmt.Sprintf("t >= %d and t < %d", lo, hi),
					OrderBy: "lat",
				})
				if err != nil {
					t.Errorf("scan [%d,%d): %v", lo, hi, err)
					return
				}
				rows, err := cur.All()
				if err != nil {
					t.Errorf("scan [%d,%d): %v", lo, hi, err)
					return
				}
				if int64(len(rows)) != hi-lo {
					t.Errorf("scan [%d,%d): %d rows", lo, hi, len(rows))
					return
				}
				for _, row := range rows {
					if ts := row[0].Int(); ts < lo || ts >= hi || row[1].Float() != latOf(ts) {
						t.Errorf("scan [%d,%d): bad row %v", lo, hi, row)
						return
					}
				}
			}
		}(r)
	}
	for b := int64(0); b < batches; b++ {
		rows := make([]rodentstore.Row, batch)
		for i := range rows {
			ts := b*batch + int64(i)
			rows[i] = rodentstore.Row{
				rodentstore.IntValue(ts), rodentstore.FloatValue(latOf(ts)),
				rodentstore.FloatValue(-71), rodentstore.StringValue("car-1"),
			}
		}
		if err := db.Insert("Obs", rows); err != nil {
			t.Fatal(err)
		}
		acked.Store((b + 1) * batch)
	}
	close(done)
	wg.Wait()
	if err := db.WaitMerges(); err != nil {
		t.Fatalf("background merge: %v", err)
	}
	if n, _ := db.RowCount("Obs"); n != batch*batches {
		t.Fatalf("row count %d, want %d", n, batch*batches)
	}
	cur, err := db.Scan("Obs", rodentstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil || len(rows) != batch*batches {
		t.Fatalf("final scan: %d rows, err %v", len(rows), err)
	}
}

// TestCheckIntegrityAllocations holds CheckIntegrity's memory to the store
// it walks: on a one-row database the walk allocates on the order of a few
// pages, not the megabytes the write-ahead log keeps preallocated past its
// logical end (wal.Log.Verify reads that region a chunk at a time).
func TestCheckIntegrityAllocations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.rdnt")
	db, err := rodentstore.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("Traces", tracesFields(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Traces", cartel.Generate(cartel.DefaultConfig(1))); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 1<<20 {
		t.Skipf("the file system did not preallocate the log (%d bytes)", st.Size())
	}
	check := func() {
		rep, err := db.CheckIntegrity()
		if err != nil || !rep.OK() {
			t.Fatalf("CheckIntegrity: %v, %v", rep, err)
		}
	}
	check()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		check()
	}
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("CheckIntegrity allocates %d bytes over a %d-byte log file, %d-byte pages", perRun, st.Size(), db.PageSize())
	if limit := int64(128 << 10); perRun > limit {
		t.Errorf("CheckIntegrity allocated %d bytes, want at most %d", perRun, limit)
	}
}
