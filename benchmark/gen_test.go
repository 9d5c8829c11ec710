package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// inputHash hashes everything the engine would be shown for a seed: rows,
// window predicates, time ranges and lookup keys.
func inputHash(seed int64) uint64 {
	h := fnv.New64a()
	fl := newFleet(seed, 12)
	os := fl.take(nil, 5000)
	for _, o := range os {
		fmt.Fprintf(h, "%d %x %x %s\n", o.t, math.Float64bits(o.lat), math.Float64bits(o.lon), fl.ids[o.car])
	}
	r := rand.New(rand.NewSource(seed + 1))
	for _, w := range genWindows(r, 50, 0.01) {
		fmt.Fprintln(h, w.where())
	}
	for _, q := range genRanges(r, 50, os[len(os)-1].t, 0.01) {
		fmt.Fprintln(h, q.where())
	}
	for _, k := range genKeys(r, 50, os) {
		fmt.Fprintln(h, os[k].t)
	}
	fmt.Fprintln(h, latQuantile(os, 0.1), fl.userBytes(os))
	return h.Sum64()
}

// The inputs are frozen with the benchmark: a change to the generators
// changes every number measured before it, so it must be deliberate.
func TestInputsPinnedForSeed1(t *testing.T) {
	const want = 0x2ae946a944d719fe
	if got := inputHash(1); got != want {
		t.Fatalf("inputs for seed 1 hash to %#x, pinned %#x", got, want)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if inputHash(7) != inputHash(7) {
		t.Fatal("same seed, different inputs")
	}
	if inputHash(7) == inputHash(8) {
		t.Fatal("different seeds, same inputs")
	}
}

func TestFleetShape(t *testing.T) {
	fl := newFleet(3, 10)
	os := fl.take(nil, 20000)
	last := int64(-1)
	for i, o := range os {
		if o.t <= last {
			t.Fatalf("row %d: t %d after %d, want strictly increasing", i, o.t, last)
		}
		last = o.t
		if o.lat < minLat-stepDeg || o.lat > maxLat+stepDeg || o.lon < minLon-stepDeg || o.lon > maxLon+stepDeg {
			t.Fatalf("row %d outside the box: %v, %v", i, o.lat, o.lon)
		}
	}
	// Consecutive observations of a car move by one small step, except at
	// a trip restart.
	jumps := 0
	for i := 10; i < len(os); i++ {
		a, b := os[i-10], os[i]
		if a.car != b.car {
			t.Fatalf("round-robin broken at row %d", i)
		}
		if math.Hypot(b.lat-a.lat, b.lon-a.lon) > 3*stepDeg {
			jumps++
		}
	}
	if jumps == 0 || jumps > len(os)/100 {
		t.Fatalf("%d trip restarts in %d rows", jumps, len(os))
	}
	rows := fl.rows(os[:3])
	if !sameRow(rows[2], os[2], fl.ids[os[2].car]) {
		t.Fatal("row boxing lost a value")
	}
}

func TestQuerySets(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	box := (maxLat - minLat) * (maxLon - minLon)
	for _, w := range genWindows(r, 100, 0.01) {
		area := (w.hiLat - w.loLat) * (w.hiLon - w.loLon)
		if math.Abs(area/box-0.01) > 1e-9 || w.loLat < minLat || w.hiLat > maxLat || w.loLon < minLon || w.hiLon > maxLon {
			t.Fatalf("window %+v: %.4f of the box", w, area/box)
		}
	}
	for _, q := range genRanges(r, 100, 1_000_000, 0.01) {
		if q.hi-q.lo != 10_000 || q.lo < 0 || q.hi > 1_000_000 {
			t.Fatalf("range %+v", q)
		}
	}
	fl := newFleet(1, 10)
	os := fl.take(nil, 50000)
	for _, frac := range []float64{0.001, 0.1, 0.5} {
		got := float64(latBelow(os, latQuantile(os, frac)).n) / float64(len(os))
		if got < frac || got > frac+0.01 {
			t.Errorf("latQuantile(%v) selects %v of the rows", frac, got)
		}
	}
	if got := latBelow(os, latQuantile(os, 1)).n; got != int64(len(os)) {
		t.Errorf("selectivity 1 selects %d of %d rows", got, len(os))
	}
}

// The one-pass window oracle must agree with testing every row against
// every window.
func TestWindowOracleAgainstBruteForce(t *testing.T) {
	fl := newFleet(5, 10)
	os := fl.take(nil, 20000)
	ws := genWindows(rand.New(rand.NewSource(6)), 40, 0.01)
	got := windowOracle(os, ws)
	ro := newRangeOracle(os)
	for i, w := range ws {
		var want tally
		for _, o := range os {
			if w.holds(o) {
				want.add(o.lat, o.lon)
			}
		}
		if got[i] != want {
			t.Errorf("window %d: oracle %+v, brute force %+v", i, got[i], want)
		}
	}
	q := trange{os[100].t, os[2100].t}
	if got := ro.tally(q); got.n != 2000 {
		t.Errorf("range oracle counted %d rows, want 2000", got.n)
	}
}
