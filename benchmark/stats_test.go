package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	// The tail is the highest ladder percentile with at least ten samples
	// beyond it.
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {23602, 99.9, true}, {100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			beyond := c.n - int(math.Round(got*100))*c.n/10000
			if beyond < 10 {
				t.Errorf("n=%d: p%v leaves only %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(ds)
	if s.Samples != 1000 || s.P50Ms != 500 || s.TailPct != 99 || s.TailMs != 990 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(ds[:5]); s.TailPct != 0 || s.P50Ms != 3 {
		t.Fatalf("five samples: %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 5, 8], n=4) == [3.0, 5.0, 8.0]
	if q1, q3 := quartiles([]float64{3, 5, 8}); q1 != 3 || q3 != 8 {
		t.Fatalf("three values: %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	cases := []struct {
		m        metricDef
		old, now []float64
		want     string
	}{
		{lower, steady(10), steady(10.5), "unchanged"},
		{lower, steady(10), steady(11.5), "regressed"},
		{lower, steady(10), steady(8), "improved"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(120), "improved"},
		{higher, steady(100), []float64{60, 80, 100, 120, 140}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.old, c.now); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, median(c.old), median(c.now), got, c.want)
		}
	}
}
