package table

import (
	"fmt"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

// insertBatches appends n batches of size rows each, with distinct t keys
// starting at base, and returns the inserted rows.
func insertBatches(t *testing.T, e *Engine, n, size, base int) []value.Row {
	t.Helper()
	var all []value.Row
	for b := 0; b < n; b++ {
		batch := traceRows(size)
		for i := range batch {
			batch[i][0] = value.NewInt(int64(base + b*size + i))
		}
		if err := e.Insert("Traces", batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	return all
}

func TestCompactFoldsTailsIntoRun(t *testing.T) {
	e, _, rows := setup(t, "sizetiered[4](orderby[t](Traces))", 200)
	extra := insertBatches(t, e, 3, 40, 1000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if len(tab.Tails) != 0 {
		t.Errorf("tails not folded: %d left", len(tab.Tails))
	}
	if len(tab.Runs) != 1 || tab.Runs[0].Level != 1 {
		t.Fatalf("want one level-1 run, got %+v", tab.Runs)
	}
	if tab.Runs[0].Rows != 120 {
		t.Errorf("run rows: %d", tab.Runs[0].Rows)
	}
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, drain(t, cur), append(append([]value.Row{}, rows...), extra...))
}

func TestCompactNoopWithoutTails(t *testing.T) {
	e, _, _ := setup(t, "sizetiered[4](rows(Traces))", 100)
	tab, _ := e.cat.Get("Traces")
	before := fmt.Sprintf("%+v", tab)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	tab, _ = e.cat.Get("Traces")
	if got := fmt.Sprintf("%+v", tab); got != before {
		t.Errorf("no-op compact changed the record:\n before %s\n after  %s", before, got)
	}
	if st := e.CompactStats(); st.Merges != 0 {
		t.Errorf("no-op compact counted %d merges", st.Merges)
	}
}

func TestSizeTieredCascade(t *testing.T) {
	e, _, rows := setup(t, "sizetiered[2](orderby[t](Traces))", 50)
	// Each Compact folds the pending tails into one L1 run; with fanout 2,
	// every second fold cascades. Drive enough folds to reach level 3.
	var extra []value.Row
	for round := 0; round < 4; round++ {
		extra = append(extra, insertBatches(t, e, 1, 30, 1000+round*1000)...)
		if err := e.Compact("Traces"); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := e.cat.Get("Traces")
	maxLevel := 0
	for i, run := range tab.Runs {
		if run.Level > maxLevel {
			maxLevel = run.Level
		}
		if i > 0 && tab.Runs[i-1].Level < run.Level {
			t.Fatalf("levels not non-increasing: %+v", tab.Runs)
		}
	}
	if maxLevel < 2 {
		t.Fatalf("cascade never promoted past level %d: %+v", maxLevel, tab.Runs)
	}
	if st := e.CompactStats(); st.Merges == 0 || st.Bytes == 0 {
		t.Errorf("fold counters not bumped: %+v", st)
	}
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, drain(t, cur), append(append([]value.Row{}, rows...), extra...))
}

func TestLeveledKeepsOneRunPerLevel(t *testing.T) {
	e, _, rows := setup(t, "leveled[4](orderby[t](Traces))", 50)
	var extra []value.Row
	for round := 0; round < 6; round++ {
		extra = append(extra, insertBatches(t, e, 2, 25, 1000+round*1000)...)
		if err := e.Compact("Traces"); err != nil {
			t.Fatal(err)
		}
		tab, _ := e.cat.Get("Traces")
		seen := map[int]bool{}
		for _, run := range tab.Runs {
			if seen[run.Level] {
				t.Fatalf("round %d: two runs at level %d: %+v", round, run.Level, tab.Runs)
			}
			seen[run.Level] = true
		}
	}
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, drain(t, cur), append(append([]value.Row{}, rows...), extra...))
}

// TestCompactPolicyBoundsBytesPerMerge: as a table grows 8× past its fold
// threshold, the plain layout's fold re-renders the whole table, so its bytes
// per merge grow with the table; under sizetiered[k] or leveled[k] even the
// worst fold of the late half (cascades included) rewrites less than the
// plain layout's last one. Fold bytes are deterministic: nothing is timed.
func TestCompactPolicyBoundsBytesPerMerge(t *testing.T) {
	const (
		fanout = 4  // compaction fanout, and tail batches per fold
		batch  = 64 // rows per insert
		stages = 8  // two folds each; the table ends 8× its first-stage size
	)
	// bytesPerMerge grows a fresh table stage by stage, folding
	// synchronously, and returns each stage's bytes rewritten per merge.
	bytesPerMerge := func(policy string) []int64 {
		e, _, _ := newEngine(t)
		layout := fmt.Sprintf("chunk[%d](orderby[t](Traces))", batch)
		if policy != "" {
			layout = fmt.Sprintf("%s[%d](%s)", policy, fanout, layout)
		}
		if err := e.Create("Traces", tracesSchema(), layout); err != nil {
			t.Fatal(err)
		}
		var out []int64
		var prev CompactStats
		next := 0
		for stage := 0; stage < stages; stage++ {
			for fold := 0; fold < 2; fold++ {
				insertBatches(t, e, fanout, batch, next)
				next += fanout * batch
				if err := e.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
			}
			st := e.CompactStats()
			if st.Merges == prev.Merges || st.Bytes == prev.Bytes {
				t.Fatalf("%s stage %d: no fold work recorded: %+v", layout, stage+1, st)
			}
			out = append(out, (st.Bytes-prev.Bytes)/(st.Merges-prev.Merges))
			prev = st
		}
		if n, err := e.RowCount("Traces"); err != nil || n != int64(next) {
			t.Fatalf("%s: RowCount = %d, %v; want %d", layout, n, err, next)
		}
		return out
	}

	full := bytesPerMerge("")
	if full[stages-1] < 4*full[0] {
		t.Fatalf("plain bytes/merge should grow with the table: first stage %d, last %d", full[0], full[stages-1])
	}
	for _, policy := range []string{"sizetiered", "leveled"} {
		var worst int64
		for _, b := range bytesPerMerge(policy)[stages/2:] {
			worst = max(worst, b)
		}
		if worst >= full[stages-1] {
			t.Errorf("%s: worst late bytes/merge %d not below the full rewrite's %d", policy, worst, full[stages-1])
		}
	}
}

func TestCompactFallsBackToReorganize(t *testing.T) {
	e, _, rows := setup(t, "orderby[t](Traces)", 100)
	extra := insertBatches(t, e, 2, 20, 1000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if len(tab.Runs) != 0 || len(tab.Tails) != 0 {
		t.Fatalf("plain layout should reorganize fully: runs=%d tails=%d",
			len(tab.Runs), len(tab.Tails))
	}
	cur, _ := e.Scan("Traces", ScanOptions{})
	got := drain(t, cur)
	sameMultiset(t, got, append(append([]value.Row{}, rows...), extra...))
	for i := 1; i < len(got); i++ {
		if got[i][0].Int() < got[i-1][0].Int() {
			t.Fatal("not ordered after fallback reorganize")
		}
	}
}

func TestCompactOrderedScanResorts(t *testing.T) {
	// With several per-run sorted parts the stored order no longer matches a
	// requested global order; the scan must materialize and re-sort.
	e, _, _ := setup(t, "sizetiered[8](orderby[t](Traces))", 100)
	insertBatches(t, e, 2, 30, 1000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	insertBatches(t, e, 2, 30, 2000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	if len(tab.Runs) < 2 {
		t.Fatalf("want >=2 runs, got %+v", tab.Runs)
	}
	cur, err := e.Scan("Traces", ScanOptions{Order: []algebra.OrderKey{{Field: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) != 220 {
		t.Fatalf("rows: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][0].Int() < got[i-1][0].Int() {
			t.Fatal("ordered scan over runs not globally sorted")
		}
	}
}

// TestCompactClampsIndexCoverage: a fold replaces the tails in place, so
// every index keeps covering the part before them — the main rendering, or
// for a table built by inserts its first run. One built over that part alone
// stays as it was, one built after the inserts is clamped to its rows, and
// IndexScan through either still equals the predicate scan.
func TestCompactClampsIndexCoverage(t *testing.T) {
	for _, loaded := range []bool{true, false} {
		e, _, _ := newEngine(t)
		if err := e.Create("Traces", tracesSchema(), "sizetiered[4](rows(Traces))"); err != nil {
			t.Fatal(err)
		}
		if loaded {
			if err := e.Load("Traces", traceRows(100)); err != nil {
				t.Fatal(err)
			}
		} else {
			insertBatches(t, e, 5, 20, 0)
			if err := e.Compact("Traces"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CreateIndex("Traces", "t"); err != nil {
			t.Fatal(err)
		}
		insertBatches(t, e, 2, 20, 1000)
		if err := e.CreateIndex("Traces", "lat"); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact("Traces"); err != nil {
			t.Fatal(err)
		}
		tab, _ := e.cat.Get("Traces")
		if len(tab.Indexes) != 2 {
			t.Fatalf("loaded=%v: surviving indexes %+v, want t and lat", loaded, tab.Indexes)
		}
		for _, ix := range tab.Indexes {
			if ix.Rows != 100 {
				t.Errorf("loaded=%v: index on %s covers %d rows, want the first part's 100", loaded, ix.Field, ix.Rows)
			}
		}
		for _, where := range []string{"t >= 90 and t < 1010", "lat > 42.36"} {
			pred, _ := algebra.ParsePredicate(where)
			cur, err := e.IndexScan("Traces", nil, pred, pred.Fields()[0])
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, cur)
			scan, _ := e.Scan("Traces", ScanOptions{Pred: pred})
			requireRows(t, where, got, drain(t, scan))
		}
	}
}

func TestCompactPersistsAcrossReopen(t *testing.T) {
	path := ""
	var want []value.Row
	{
		e, f, p := newEngine(t)
		path = p
		if err := e.Create("Traces", tracesSchema(), "sizetiered[4](orderby[t](Traces))"); err != nil {
			t.Fatal(err)
		}
		want = traceRows(100)
		if err := e.Load("Traces", want); err != nil {
			t.Fatal(err)
		}
		want = append(want, insertBatches(t, e, 3, 30, 1000)...)
		if err := e.Compact("Traces"); err != nil {
			t.Fatal(err)
		}
		tab, _ := e.cat.Get("Traces")
		if len(tab.Runs) == 0 {
			t.Fatal("no runs before reopen")
		}
		if err := e.cat.Flush(); err != nil {
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
	tab, err := e.cat.Get("Traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Runs) != 1 || tab.Runs[0].Level != 1 || tab.Runs[0].Rows != 90 {
		t.Fatalf("runs after reopen: %+v", tab.Runs)
	}
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, drain(t, cur), want)
}

func TestCompactIntegrityAndEstimate(t *testing.T) {
	e, _, _ := setup(t, "sizetiered[2](cols(Traces))", 100)
	insertBatches(t, e, 2, 30, 1000)
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity issues over runs: %v", rep.Issues)
	}
	est, err := e.EstimateScan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows != 160 {
		t.Errorf("estimate rows over runs: %d", est.Rows)
	}
}

func TestAutoMergeCompactsPolicyTable(t *testing.T) {
	e, _, _ := setup(t, "sizetiered[3](orderby[t](Traces))", 60)
	e.EnableAutoMerge(100)
	defer e.DisableAutoMerge()
	want := insertBatches(t, e, 9, 10, 1000)
	e.WaitMerges()
	if err := e.MergeErr(); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("Traces")
	// The policy trigger (>= fanout tails), not MaxTails=100, must have fired.
	if len(tab.Runs) == 0 {
		t.Fatalf("background compaction never folded: tails=%d", len(tab.Tails))
	}
	if len(tab.Tails) >= 3+3 {
		t.Errorf("tail backlog kept growing: %d", len(tab.Tails))
	}
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if len(got) != 60+len(want) {
		t.Errorf("rows after background folds: %d", len(got))
	}
}

func TestMergeWorkerToleratesDroppedTable(t *testing.T) {
	e, _, _ := setup(t, "sizetiered[2](rows(Traces))", 20)
	e.EnableAutoMerge(100)
	defer e.DisableAutoMerge()
	insertBatches(t, e, 3, 10, 1000)
	// Drop races the queued background fold; whichever side wins, a vanished
	// table must not latch a merge error.
	if err := e.Drop("Traces"); err != nil {
		t.Fatal(err)
	}
	e.WaitMerges()
	if err := e.MergeErr(); err != nil {
		t.Errorf("dropped table latched a merge error: %v", err)
	}
}

func TestCompactUnknownTable(t *testing.T) {
	e, _, _ := newEngine(t)
	err := e.Compact("nope")
	if err == nil {
		t.Fatal("want error")
	}
}
