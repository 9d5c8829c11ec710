package table

// Differential property test for leveled run storage: a multi-level table
// (main rendering + several organized runs + leftover tails) must be
// value-identical to the same rows held in one compacted rendering, under
// every layout × predicate × scan variant. The oracle is the boxed
// executor (oracle_test.go) over the single-rendering table; the subject is
// every combination of {zone prune on/off} × {quarantine on/off} over the
// leveled table. Aggregates are additionally
// pinned bit for bit to the boxed executor over the subject's own blocks
// (float sums associate per block, so only the same block structure can be
// bit-identical). Quarantine on clean data must be a no-op (damage paths are
// covered by the fault tests).

import (
	"fmt"
	"sort"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// sortedKeys renders rows to a deterministic, comparable form.
func sortedKeys(rows []value.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

func TestCompactDifferentialOracle(t *testing.T) {
	// rounds/batch are tuned per policy so the subject ends with runs at two
	// distinct levels plus unfolded tails: size-tiered needs fanout folds to
	// cascade plus one more for a fresh L1 run; leveled (with chunk[100]
	// shrinking the per-level row target to 100·fanout^level) needs enough
	// rounds to outgrow L1 and promote, plus one more.
	cases := []struct {
		policy string // compaction directive wrapped around base
		base   string // layout underneath
		rounds int
		batch  int // rows per insert batch (2 batches per round)
		preds  []string
	}{
		{"sizetiered[2]", "rows(Traces)", 3, 35, []string{"", "lat >= 42.359 and lat < 42.361"}},
		{"sizetiered[3]", "cols(Traces)", 4, 35, []string{"", `id = "car-2"`}},
		{"leveled[2]", "chunk[100](colgroup[lat,lon](Traces))", 4, 35, []string{"", "t >= 120 and t < 1500"}},
		{"sizetiered[2]", "orderby[t](Traces)", 3, 35, []string{"", "lat >= 42.359 and lat < 42.361"}},
		{"leveled[3]", "chunk[100](groupby[id](Traces))", 4, 50, []string{"", `id = "car-1"`}},
		{"sizetiered[2]", "dict[id](bitpack[t](rows(Traces)))", 3, 35, []string{"", "t >= 0 and t < 150"}},
		{"leveled[2]", "chunk[100](project[lat,lon](orderby[lat](Traces)))", 4, 35, []string{"", "lat >= 42.359"}},
	}
	for _, c := range cases {
		layout := fmt.Sprintf("%s(%s)", c.policy, c.base)
		t.Run(layout, func(t *testing.T) {
			// Subject: bulk load + insert/compact rounds build main segments,
			// runs at more than one level, and leftover tails.
			subj, _, rows := setup(t, layout, 200)
			for round := 0; round < c.rounds; round++ {
				rows = append(rows, insertBatches(t, subj, 2, c.batch, 1000+round*1000)...)
				if err := subj.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
			}
			rows = append(rows, insertBatches(t, subj, 1, 15, 9000)...) // tails left unfolded
			tab, _ := subj.cat.Get("Traces")
			if len(tab.Runs) < 2 || tab.Runs[0].Level == tab.Runs[len(tab.Runs)-1].Level ||
				len(tab.Tails) == 0 || len(tab.Segments) == 0 {
				t.Fatalf("subject not multi-level: main=%d runs=%+v tails=%d",
					len(tab.Segments), tab.Runs, len(tab.Tails))
			}

			// Oracle: identical rows, same base layout, one rendering.
			oracle, _, _ := newEngine(t)
			if err := oracle.Create("Traces", tracesSchema(), c.base); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Load("Traces", rows); err != nil {
				t.Fatal(err)
			}

			for _, predSrc := range c.preds {
				var pred algebra.Predicate
				if predSrc != "" {
					var err error
					pred, err = algebra.ParsePredicate(predSrc)
					if err != nil {
						t.Fatal(err)
					}
				}
				want := sortedKeys(oracleScan(t, oracle, "Traces", ScanOptions{Pred: pred}))
				var agg AggSpec
				for _, src := range []string{"count", "sum(lat)", "avg(lon)", "min(lat - lon)"} {
					item, err := ParseAggItem(src)
					if err != nil {
						t.Fatal(err)
					}
					agg.Items = append(agg.Items, item)
				}

				for variant := 0; variant < 4; variant++ {
					opts := ScanOptions{
						Pred:        pred,
						NoZonePrune: variant&1 != 0,
						Quarantine:  variant&2 != 0,
					}
					cur, err := subj.Scan("Traces", opts)
					if err != nil {
						t.Fatalf("pred=%q variant=%d: %v", predSrc, variant, err)
					}
					got := sortedKeys(drain(t, cur))
					if len(got) != len(want) {
						t.Fatalf("pred=%q variant=%#v: %d rows, oracle %d",
							predSrc, opts, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("pred=%q variant=%#v: row %d differs\n got %s\nwant %s",
								predSrc, opts, i, got[i], want[i])
						}
					}
					if q := cur.Report().Skipped; len(q) != 0 {
						t.Fatalf("clean data quarantined extents: %v", q)
					}
					opts.Aggregate = &agg
					cur, err = subj.Scan("Traces", opts)
					if err != nil {
						t.Fatalf("pred=%q variant=%#v: %v", predSrc, opts, err)
					}
					requireRows(t, fmt.Sprintf("aggregate pred=%q variant=%#v", predSrc, opts),
						drain(t, cur), oracleScan(t, subj, "Traces", opts))
					if q := cur.Report().Skipped; len(q) != 0 {
						t.Fatalf("clean data quarantined extents: %v", q)
					}
				}
			}
		})
	}
}
