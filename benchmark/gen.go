package main

// Seeded input generators. Everything the engine sees — rows, window
// predicates, time ranges, lookup keys — is produced here from -seed, so the
// inputs are frozen with the benchmark and do not move when internal/cartel
// or internal/bench change. gen_test.go pins a hash of the seed-1 output.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	rs "rodentstore"
)

// The Boston bounding box of the paper's CarTel case study (§6).
const (
	minLat = 42.30
	maxLat = 42.42
	minLon = -71.15
	maxLon = -71.02

	stepDeg  = 7e-5 // per-observation movement, ~5-10 m
	tripLen  = 600  // mean observations per trip before a car restarts elsewhere
	tStride  = 1000 // t = round*tStride + car: unique, increasing in arrival order
	maxCars  = tStride
	batchLen = 256 // rows per insert
)

// obs is one observation in the compact form the oracles work on; the engine
// gets the same values boxed as an rs.Row.
type obs struct {
	t        int64
	lat, lon float64
	car      int32
}

var schema = []rs.Field{
	{Name: "t", Type: rs.Int},
	{Name: "lat", Type: rs.Float},
	{Name: "lon", Type: rs.Float},
	{Name: "id", Type: rs.String},
}

type car struct {
	lat, lon   float64
	dLat, dLon float64
	left       int
}

// fleet is the trajectory generator: cars random-walk inside the box with
// heading persistence, bounce off its edges and occasionally restart a trip
// at a new place. Observations come out in arrival order, round-robin over
// the cars, each with a unique increasing t.
type fleet struct {
	r     *rand.Rand
	cars  []car
	ids   []string
	round int64
	next  int
}

func newFleet(seed int64, cars int) *fleet {
	if cars < 4 {
		cars = 4
	}
	if cars > maxCars {
		cars = maxCars
	}
	f := &fleet{r: rand.New(rand.NewSource(seed)), cars: make([]car, cars), ids: make([]string, cars)}
	for i := range f.cars {
		f.ids[i] = fmt.Sprintf("car-%03d", i)
		f.restart(&f.cars[i])
	}
	return f
}

func (f *fleet) restart(c *car) {
	c.lat = minLat + f.r.Float64()*(maxLat-minLat)
	c.lon = minLon + f.r.Float64()*(maxLon-minLon)
	c.left = 1 + f.r.Intn(2*tripLen)
	f.turn(c)
}

func (f *fleet) turn(c *car) {
	a := f.r.Float64() * 2 * math.Pi
	c.dLat, c.dLon = stepDeg*math.Sin(a), stepDeg*math.Cos(a)
}

func (f *fleet) one() obs {
	i := f.next
	c := &f.cars[i]
	if c.left <= 0 {
		f.restart(c)
	}
	if f.r.Float64() < 0.05 {
		f.turn(c)
	}
	c.lat += c.dLat
	c.lon += c.dLon
	if c.lat < minLat || c.lat > maxLat {
		c.dLat = -c.dLat
		c.lat += 2 * c.dLat
	}
	if c.lon < minLon || c.lon > maxLon {
		c.dLon = -c.dLon
		c.lon += 2 * c.dLon
	}
	c.left--
	o := obs{t: f.round*tStride + int64(i), lat: c.lat, lon: c.lon, car: int32(i)}
	if f.next++; f.next == len(f.cars) {
		f.next, f.round = 0, f.round+1
	}
	return o
}

// take appends the next n observations to dst.
func (f *fleet) take(dst []obs, n int) []obs {
	dst = slices.Grow(dst, n)
	for ; n > 0; n-- {
		dst = append(dst, f.one())
	}
	return dst
}

// row boxes an observation for the engine.
func (f *fleet) row(o obs) rs.Row {
	return rs.Row{rs.IntValue(o.t), rs.FloatValue(o.lat), rs.FloatValue(o.lon), rs.StringValue(f.ids[o.car])}
}

func (f *fleet) rows(os []obs) []rs.Row {
	out := make([]rs.Row, len(os))
	for i, o := range os {
		out[i] = f.row(o)
	}
	return out
}

// userBytes is the size of the data as the user handed it over: three
// 8-byte values plus the id string per row. Write and space amplification
// are relative to this.
func (f *fleet) userBytes(os []obs) int64 {
	var n int64
	for _, o := range os {
		n += 24 + int64(len(f.ids[o.car]))
	}
	return n
}

// fleetSize is the fleet for a table of n rows: one car per 5000
// observations, as in the paper-figure experiments.
func fleetSize(n int) int { return n / 5000 }

// window is one spatial window query: a rectangle covering a fixed fraction
// of the box (the paper uses 1 %).
type window struct{ loLat, hiLat, loLon, hiLon float64 }

func genWindows(r *rand.Rand, n int, fraction float64) []window {
	side := math.Sqrt(fraction)
	sLat, sLon := side*(maxLat-minLat), side*(maxLon-minLon)
	out := make([]window, n)
	for i := range out {
		lat := minLat + r.Float64()*(maxLat-minLat-sLat)
		lon := minLon + r.Float64()*(maxLon-minLon-sLon)
		out[i] = window{lat, lat + sLat, lon, lon + sLon}
	}
	return out
}

func (w window) where() string {
	return fmt.Sprintf("lat >= %v and lat < %v and lon >= %v and lon < %v", w.loLat, w.hiLat, w.loLon, w.hiLon)
}

func (w window) holds(o obs) bool {
	return o.lat >= w.loLat && o.lat < w.hiLat && o.lon >= w.loLon && o.lon < w.hiLon
}

// trange is a half-open time range [lo, hi).
type trange struct{ lo, hi int64 }

// genRanges draws n ranges each covering fraction of [0, tMax].
func genRanges(r *rand.Rand, n int, tMax int64, fraction float64) []trange {
	width := int64(float64(tMax) * fraction)
	if width < 1 {
		width = 1
	}
	out := make([]trange, n)
	for i := range out {
		lo := r.Int63n(tMax - width + 1)
		out[i] = trange{lo, lo + width}
	}
	return out
}

func (q trange) where() string { return fmt.Sprintf("t >= %d and t < %d", q.lo, q.hi) }

// genKeys draws n uniform lookup keys from the t values of os.
func genKeys(r *rand.Rand, n int, os []obs) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(len(os))
	}
	return out
}

// latQuantile returns the threshold x such that about fraction of os have
// lat < x, for building filters of a wanted selectivity.
func latQuantile(os []obs, fraction float64) float64 {
	if fraction >= 1 {
		return maxLat + 1
	}
	// A fixed 4096-bucket histogram over the box is exact enough: the
	// oracle computes the true count for whatever threshold comes out.
	const buckets = 4096
	var hist [buckets]int
	for _, o := range os {
		b := int((o.lat - minLat) / (maxLat - minLat) * buckets)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	want := int(float64(len(os)) * fraction)
	seen := 0
	for b, c := range hist {
		seen += c
		if seen >= want {
			return minLat + float64(b+1)/buckets*(maxLat-minLat)
		}
	}
	return maxLat + 1
}
