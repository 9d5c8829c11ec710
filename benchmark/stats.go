package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule's spread is defined on. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailLadder are the percentiles a tail may be reported at, in hundredths
// of a percent (integers, so that ranks are exact).
var tailLadder = []int{5000, 7500, 9000, 9500, 9900, 9990, 9999}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it; ok is false when even the median does not
// (fewer than twenty samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		rank := (n*c + 9999) / 10000 // nearest rank, rounded up
		if n-rank >= 10 {
			p, ok = float64(c)/100, true
		}
	}
	return p, ok
}

// latencySummary is what the report keeps of one operation class.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_percentile"` // 0: too few samples for a tail
}

func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	out := latencySummary{Samples: len(ms), P50Ms: quantile(ms, 0.5)}
	if p, ok := tailPercentile(len(ms)); ok {
		out.TailPct, out.TailMs = p, quantile(ms, p/100)
	}
	return out
}
