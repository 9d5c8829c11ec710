package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/table"
	"rodentstore/internal/value"
)

// AggResult is one aggregation measurement: full-table aggregate rows/sec
// at a given predicate selectivity, on the serial block pipeline or the
// morsel-parallel one.
type AggResult struct {
	// Name labels the run, e.g. "sum sel=1% serial".
	Name string
	// Agg names the aggregate shape: count, sum, group-by, or expr.
	Agg string
	// Selectivity is the fraction of rows the predicate matches.
	Selectivity float64
	// Mode is serial or parallel.
	Mode string
	// Gomaxprocs records runtime.GOMAXPROCS(0) for parallel runs (0
	// otherwise) — a parallel speedup is only meaningful with >1.
	Gomaxprocs int
	// Rows is the number of table rows scanned (the input size).
	Rows int64
	// Groups is the number of output rows (1 for ungrouped aggregates).
	Groups int
	// Ms is the wall time of the best run.
	Ms float64
	// RowsPerSec is scanned Rows / wall seconds.
	RowsPerSec float64
	// ParallelSpeedup is RowsPerSec over the serial run of the same
	// aggregate at the same selectivity (set on parallel runs only).
	ParallelSpeedup float64
}

// AggSelectivities is the sweep AggThroughput measures.
var AggSelectivities = []float64{0.01, 1.0}

// AggThroughput (Ext-13) measures the pushed-down aggregation path: count,
// sum, hash group-by, and an arithmetic-expression sum over a four-column
// table, at 1% and 100% predicate selectivity, serially and through the
// morsel scheduler. The buffer pool is pre-warmed and zone pruning is left
// on (the aggregate path prunes exactly like a scan), so the rows are
// per-tuple CPU cost. Serial and parallel results are bit-identical by
// construction — this experiment measures only the clock. (The boxed
// row-at-a-time baseline this experiment once compared against now lives
// only in internal/table's tests, as the differential oracle; the gating
// benchmark's scan_hot workload tracks these rates across commits.)
func AggThroughput(cfg Config) ([]AggResult, error) {
	const keySpace = 1 << 20
	schema := value.MustSchema(
		value.Field{Name: "k", Type: value.Int},
		value.Field{Name: "g", Type: value.Int},
		value.Field{Name: "v", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
	)
	r := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]value.Row, cfg.N)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(r.Intn(keySpace))),
			value.NewInt(int64(r.Intn(64))),
			value.NewInt(int64(i)),
			value.NewFloat(r.Float64()),
		}
	}
	e, err := newEnv(cfg, "agg")
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.eng.Create("A", schema, "chunk[4096](rows(A))"); err != nil {
		return nil, err
	}
	if err := e.eng.Load("A", rows); err != nil {
		return nil, err
	}
	pool, err := buffer.NewPool(e.file, int(e.file.NumPages())+64)
	if err != nil {
		return nil, err
	}
	e.eng.Source = pool

	specOf := func(aggs []string, groupBy []string) (*table.AggSpec, error) {
		spec := &table.AggSpec{GroupBy: groupBy}
		for _, s := range aggs {
			item, err := table.ParseAggItem(s)
			if err != nil {
				return nil, err
			}
			spec.Items = append(spec.Items, item)
		}
		return spec, nil
	}
	shapes := []struct {
		agg     string
		aggs    []string
		groupBy []string
	}{
		{"count", []string{"count"}, nil},
		{"sum", []string{"sum(v)"}, nil},
		{"group-by", []string{"count", "sum(v)"}, []string{"g"}},
		{"expr", []string{"sum(v * 2 + k)", "min(x)"}, nil},
	}
	// Warm the pool with one full pass.
	if warm, err := specOf([]string{"sum(v)"}, nil); err != nil {
		return nil, err
	} else if _, _, err := runAgg(e, warm, algebra.True, false); err != nil {
		return nil, err
	}

	var out []AggResult
	for _, shape := range shapes {
		spec, err := specOf(shape.aggs, shape.groupBy)
		if err != nil {
			return nil, err
		}
		for _, sel := range AggSelectivities {
			pred := algebra.True.And("k", algebra.OpLt, value.NewInt(int64(float64(keySpace)*sel)))
			var serialRPS float64
			for _, mode := range []string{"serial", "parallel"} {
				best := AggResult{Agg: shape.agg, Selectivity: sel, Mode: mode}
				for rep := 0; rep < 3; rep++ {
					start := time.Now()
					groups, scanned, err := runAgg(e, spec, pred, mode == "parallel")
					elapsed := time.Since(start)
					if err != nil {
						return nil, err
					}
					ms := float64(elapsed.Microseconds()) / 1000.0
					if rep == 0 || ms < best.Ms {
						best.Ms = ms
						best.Rows = scanned
						best.Groups = groups
					}
				}
				if secs := best.Ms / 1000.0; secs > 0 {
					best.RowsPerSec = float64(best.Rows) / secs
				}
				if mode == "serial" {
					serialRPS = best.RowsPerSec
				} else {
					best.Gomaxprocs = runtime.GOMAXPROCS(0)
					if serialRPS > 0 {
						best.ParallelSpeedup = best.RowsPerSec / serialRPS
					}
				}
				best.Name = fmt.Sprintf("%s sel=%g%% %s", shape.agg, sel*100, mode)
				out = append(out, best)
			}
		}
	}
	return out, nil
}

// runAgg runs one aggregation over A, returning the group count and the
// scanned (input) row count.
func runAgg(e *env, spec *table.AggSpec, pred algebra.Predicate, parallel bool) (groups int, scanned int64, err error) {
	cur, err := e.eng.Scan("A", table.ScanOptions{Pred: pred, Aggregate: spec, Parallel: parallel})
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	scanned, err = e.eng.RowCount("A")
	if err != nil {
		return 0, 0, err
	}
	for {
		_, ok, err := cur.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return groups, scanned, nil
		}
		groups++
	}
}
