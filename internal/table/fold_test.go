package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
)

// tableState is everything a failed AlterLayout must leave alone.
type tableState struct {
	layout, pending string
	needsReorg      bool
	rowCount        int64
	segments        any
	ordered         []value.Row
}

func stateOf(t *testing.T, e *Engine, name string, order []algebra.OrderKey) tableState {
	t.Helper()
	tab, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := e.Scan(name, ScanOptions{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	return tableState{
		layout: tab.LayoutExpr, pending: tab.PendingExpr, needsReorg: tab.NeedsReorg,
		rowCount: tab.RowCount, segments: tab.Segments, ordered: drain(t, cur),
	}
}

func (before tableState) requireUnchanged(t *testing.T, after tableState) {
	t.Helper()
	if after.layout != before.layout || after.pending != before.pending || after.needsReorg != before.needsReorg {
		t.Fatalf("layout %q (pending %q, reorg %v) became %q (pending %q, reorg %v)",
			before.layout, before.pending, before.needsReorg, after.layout, after.pending, after.needsReorg)
	}
	if after.rowCount != before.rowCount {
		t.Fatalf("RowCount %d became %d", before.rowCount, after.rowCount)
	}
	if !reflect.DeepEqual(before.segments, after.segments) {
		t.Fatal("segments changed")
	}
	if !reflect.DeepEqual(before.ordered, after.ordered) {
		t.Fatal("ordered scan changed")
	}
}

// TestUnservableAlterRefusedInBothModes: a layout that needs an attribute the
// stored form dropped is refused by AlterLayout itself, eager or lazy, and
// the table is exactly as before — same expression, same segments, same
// ordered scan — and still scannable and compactable.
func TestUnservableAlterRefusedInBothModes(t *testing.T) {
	byLat := []algebra.OrderKey{{Field: "lat"}}
	for _, mode := range []ReorgMode{ReorgEager, ReorgLazy} {
		t.Run(string(mode), func(t *testing.T) {
			e, _, _ := setup(t, "project[lat,lon](Traces)", 300)
			before := stateOf(t, e, "Traces", byLat)
			for i := 1; i < len(before.ordered); i++ {
				if before.ordered[i-1][0].Float() > before.ordered[i][0].Float() {
					t.Fatal("ordered scan is not sorted to begin with")
				}
			}

			err := e.AlterLayout("Traces", "orderby[t](Traces)", mode)
			if err == nil || !strings.Contains(err.Error(), "layout needs attributes the stored form dropped") {
				t.Fatalf("AlterLayout(%s) = %v, want the dropped-attributes refusal", mode, err)
			}
			before.requireUnchanged(t, stateOf(t, e, "Traces", byLat))
			// An order the refused expression would have promised must not be
			// trusted: asking for it is an error (t is not stored), never an
			// unsorted stream.
			if _, err := e.Scan("Traces", ScanOptions{Order: []algebra.OrderKey{{Field: "t"}}}); err == nil {
				t.Fatal("scan ordered by a dropped attribute succeeded")
			}
			if err := e.Compact("Traces"); err != nil {
				t.Fatalf("table no longer compactable: %v", err)
			}
			if got := countRows(t, e, "Traces"); got != 300 {
				t.Fatalf("rows after compact: %d", got)
			}
			// A layout the stored form can serve is still accepted.
			if err := e.AlterLayout("Traces", "orderby[lat](project[lat,lon](Traces))", mode); err != nil {
				t.Fatal(err)
			}
			if got := countRows(t, e, "Traces"); got != 300 {
				t.Fatalf("rows after a servable alter: %d", got)
			}
		})
	}
}

// TestIndexTreesAreReclaimed: dropping an index — directly, or through a
// rewrite of the rendering it described — hands the whole tree back to the
// pager, so a create/drop cycle does not grow the file.
func TestIndexTreesAreReclaimed(t *testing.T) {
	e, f, _ := setup(t, "rows(Traces)", 20_000)
	var afterFirst uint64
	for round := 1; round <= 5; round++ {
		if err := e.CreateIndex("Traces", "t"); err != nil {
			t.Fatal(err)
		}
		if err := e.DropIndex("Traces", "t"); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			afterFirst = f.NumPages()
		}
	}
	if got := f.NumPages(); got != afterFirst {
		t.Errorf("allocated pages after 5 create/drop rounds: %d, after 1: %d", got, afterFirst)
	}

	// Reorganize over an indexed table supersedes the tree with the rendering.
	base := f.NumPages()
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Reorganize("Traces"); err != nil {
		t.Fatal(err)
	}
	if got := f.NumPages(); got != base {
		t.Errorf("allocated pages after reorganizing an indexed table: %d, want %d", got, base)
	}
	rep, err := e.CheckIntegrity()
	if err != nil || !rep.OK() {
		t.Fatalf("integrity after index churn: %v %v", err, rep.Issues)
	}
	if got := countRows(t, e, "Traces"); got != 20_000 {
		t.Fatalf("rows: %d", got)
	}

	// Drop reclaims a live index with the table.
	if err := e.CreateIndex("Traces", "t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("Traces"); err != nil {
		t.Fatal(err)
	}
	// What stays allocated is the catalog extent alone.
	if got := f.NumPages(); got > 2 {
		t.Errorf("pages still allocated after dropping the only table: %d", got)
	}
}

// TestCompactStatsPinned replays one insert/Compact/Reorganize script on a
// plain, a size-tiered and a leveled table and pins CompactStats to the
// numbers the three separate fold paths produced before they became one: a
// fold counts iff it absorbed at least one tail or run, and it costs the
// rows and payload bytes it wrote.
func TestCompactStatsPinned(t *testing.T) {
	cases := []struct {
		layout string
		want   CompactStats
	}{
		// Captured at commit 2e97512, the last one with three fold paths.
		{"orderby[t](Traces)", CompactStats{Merges: 7, Rows: 1787, Bytes: 53876}},
		{"sizetiered[2](orderby[t](Traces))", CompactStats{Merges: 11, Rows: 987, Bytes: 29983}},
		{"leveled[2](chunk[16](orderby[t](Traces)))", CompactStats{Merges: 17, Rows: 1427, Bytes: 45912}},
	}
	for _, tc := range cases {
		e, _, _ := setup(t, tc.layout, 100)
		if err := e.Reorganize("Traces"); err != nil { // lone main part: not a merge
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			insertBatches(t, e, 2, 20, 1000+round*100)
			if err := e.Compact("Traces"); err != nil {
				t.Fatal(err)
			}
		}
		insertBatches(t, e, 1, 7, 5000)
		if err := e.Reorganize("Traces"); err != nil {
			t.Fatal(err)
		}
		if got := e.CompactStats(); got != tc.want {
			t.Errorf("%s: CompactStats = %+v, want %+v", tc.layout, got, tc.want)
		}
	}
}

// renderRows draws n Traces rows that put a render's corner cases in every
// batch: t repeats (orderby ties, which a merge must break toward the
// earlier input), lat repeats and takes NaN and both zeros, id takes the
// empty string.
func renderRows(r *rand.Rand, n, base int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		lat := 42.36 + float64(r.Intn(40))*1e-4
		switch r.Intn(20) {
		case 0:
			lat = math.NaN()
		case 1:
			lat = math.Copysign(0, -1)
		case 2:
			lat = 0
		}
		rows[i] = value.Row{
			value.NewInt(int64(base + r.Intn(n))),
			value.NewFloat(lat),
			value.NewFloat(-71.09 + r.Float64()*1e-2),
			value.NewString([]string{"car-1", "car-2", "", "car-3"}[r.Intn(4)]),
		}
	}
	return rows
}

// TestRenderMatchesBoxedOracle: every part the engine writes — a Load's main
// rendering, an Insert's tail, each run a Compact folds (cascades included),
// a Reorganize and an eager AlterLayout — holds exactly the bytes, block
// metadata and grid bounds of the boxed fold in oracle_test.go, over the
// policy × layout cases of TestCompactDifferentialOracle, the layouts of
// TestLayoutsRoundtripFullScan, and two whose parts are not in the order of
// their orderby.
func TestRenderMatchesBoxedOracle(t *testing.T) {
	layouts := []string{
		"sizetiered[2](rows(Traces))",
		"sizetiered[3](cols(Traces))",
		"leveled[2](chunk[100](colgroup[lat,lon](Traces)))",
		"sizetiered[2](orderby[t](Traces))",
		"leveled[3](chunk[100](groupby[id](Traces)))",
		"sizetiered[2](dict[id](bitpack[t](rows(Traces))))",
		"leveled[2](chunk[100](project[lat,lon](orderby[lat](Traces))))",
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
		// Sorted by t, but not stored in t order: parts must be re-sorted.
		"groupby[id](orderby[t](Traces))",
		"zorder(grid[lat,lon; 8,8](orderby[t](Traces)))",
	}
	for _, l := range layouts {
		t.Run(l, func(t *testing.T) {
			r := rand.New(rand.NewSource(25))
			e, _, _ := newEngine(t)
			if err := e.Create("Traces", tracesSchema(), l); err != nil {
				t.Fatal(err)
			}
			get := func() *catalog.Table {
				tab, err := e.cat.Get("Traces")
				if err != nil {
					t.Fatal(err)
				}
				return tab
			}
			rows := renderRows(r, 200, 0)
			want := oracleRender(t, e, get(), transforms.Relation{Schema: tracesSchema(), Rows: rows}, false)
			if err := e.Load("Traces", rows); err != nil {
				t.Fatal(err)
			}
			tab := get()
			requireRendered(t, e, "Load", tab.Segments, tab.GridBounds, want)

			insert := func(what string, n int) {
				batch := renderRows(r, n, 1000*len(get().Tails))
				want := oracleRender(t, e, get(), transforms.Relation{Schema: tracesSchema(), Rows: batch}, true)
				if err := e.Insert("Traces", batch); err != nil {
					t.Fatal(err)
				}
				tab := get()
				requireRendered(t, e, what, tab.Tails[len(tab.Tails)-1], nil, want)
			}
			// Reorganize (a plain layout's Compact too) leaves one main part.
			reorganized := func(what string, want oraclePart) {
				tab := get()
				if len(tab.Runs) != 0 || len(tab.Tails) != 0 {
					t.Fatalf("%s left %d runs and %d tails", what, len(tab.Runs), len(tab.Tails))
				}
				requireRendered(t, e, what, tab.Segments, tab.GridBounds, want)
			}
			for round := 0; round < 4; round++ {
				insert(fmt.Sprintf("round %d insert", round), 35)
				insert(fmt.Sprintf("round %d insert", round), 35+round)
				before := get()
				spec, err := e.compile(before.LayoutExpr)
				if err != nil {
					t.Fatal(err)
				}
				var runs []oracleRun
				var main oraclePart
				if spec.Compaction != nil {
					runs = oracleCompact(t, e, before)
				} else {
					main = oracleFold(t, e, before, before.Parts())
				}
				if err := e.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("round %d Compact", round)
				if spec.Compaction == nil {
					reorganized(what, main)
					continue
				}
				after := get()
				if len(after.Runs) != len(runs) || len(after.Tails) != 0 {
					t.Fatalf("%s: %d runs and %d tails, oracle %d runs", what, len(after.Runs), len(after.Tails), len(runs))
				}
				for i, run := range runs {
					if after.Runs[i].Level != run.level || after.Runs[i].Rows != int64(len(run.rows)) {
						t.Fatalf("%s: run %d is L%d with %d rows, oracle L%d with %d", what, i,
							after.Runs[i].Level, after.Runs[i].Rows, run.level, len(run.rows))
					}
					if run.part != nil {
						requireRendered(t, e, fmt.Sprintf("%s run %d", what, i), after.Runs[i].Segments, nil, *run.part)
					}
				}
			}
			insert("insert before Reorganize", 20)
			before := get()
			main := oracleFold(t, e, before, before.Parts())
			if err := e.Reorganize("Traces"); err != nil {
				t.Fatal(err)
			}
			reorganized("Reorganize", main)

			// An eager alter re-sorts parts rendered under the old layout.
			insert("insert before AlterLayout", 20)
			const alt = "chunk[50](orderby[lon](Traces))"
			work := *get()
			work.LayoutExpr = alt
			main = oracleFold(t, e, &work, work.Parts())
			if err := e.AlterLayout("Traces", alt, ReorgEager); err != nil {
				t.Fatal(err)
			}
			reorganized("eager AlterLayout", main)
		})
	}
}

// TestFoldAllocationsPerRow pins the memory a fold allocates per row it
// writes: 182 bytes when this test was written (the read-back columns, the
// permutation, the encoded stream and the page reads and writes), where
// boxing each row and cloning it to sort took 1,665. Skipped under -race,
// where sync.Pool drops pooled batches.
func TestFoldAllocationsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over sync.Pool are not steady under -race")
	}
	e, _, _ := setup(t, "leveled[2](chunk[256](orderby[t](Traces)))", 1000)
	insertBatches(t, e, 16, 256, 10_000)
	before := e.CompactStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	rows := e.CompactStats().Rows - before.Rows
	if rows < 16*256*4 {
		t.Fatalf("the Compact folded %d rows: want the tails folded and cascaded", rows)
	}
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	t.Logf("%.0f bytes allocated per folded row over %d rows", perRow, rows)
	if perRow > 200 {
		t.Errorf("a fold allocated %.0f bytes per row it wrote", perRow)
	}
}
