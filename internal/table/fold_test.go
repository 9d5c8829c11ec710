package table

import (
	"reflect"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
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
