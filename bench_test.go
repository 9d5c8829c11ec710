// Package-level benchmarks: one testing.B benchmark per experiment in
// DESIGN.md's index. Each benchmark reports pages/query (the paper's
// Figure 2 metric) and seeks/query as custom metrics alongside wall time.
//
// These run at laptop scale (b.N-independent fixed datasets, built once per
// benchmark); cmd/rsbench runs the same experiments at the paper's scale.
package rodentstore_test

import (
	"testing"

	"rodentstore/internal/bench"
)

func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	cfg := bench.DefaultConfig(b.TempDir())
	cfg.N = 100_000
	cfg.Queries = 20
	return cfg
}

// report re-runs an experiment once per b.N and reports the figure metrics
// for the named variant.
func reportResults(b *testing.B, results []bench.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range results {
		b.ReportMetric(r.PagesQuery, "pages/query:"+sanitize(r.Name))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFigure2 regenerates the paper's Figure 2 (avg pages/query for
// N1, N2, N3, N4 and the R-tree baseline).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		results, err := bench.Figure2(cfg)
		reportResults(b, results, err)
	}
}

// BenchmarkCurveSeeks is Ext-1: z-order vs row-major vs Hilbert cell
// ordering (the N3 -> N3' step).
func BenchmarkCurveSeeks(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		results, err := bench.CurveSeeks(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.SeeksQuery, "seeks/query:"+sanitize(r.Name))
		}
	}
}

// BenchmarkGridCellSweep is Ext-2: pages/query across grid resolutions.
func BenchmarkGridCellSweep(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		results, err := bench.GridCellSweep(cfg, []int{16, 64, 256})
		reportResults(b, results, err)
	}
}

// BenchmarkPageSizeSweep is Ext-3: the N4 layout across page sizes.
func BenchmarkPageSizeSweep(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		results, err := bench.PageSizeSweep(cfg, []int{512, 1024, 4096})
		reportResults(b, results, err)
	}
}

// BenchmarkCodecs is Ext-4: codec ablation on the z-ordered grid.
func BenchmarkCodecs(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		results, err := bench.Codecs(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(float64(r.DataPages), "datapages:"+sanitize(r.Name))
		}
	}
}

// BenchmarkFoldRender is Ext-5: Algorithm 1 (nested loops) vs hash fold.
func BenchmarkFoldRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := bench.FoldRender([]int{20000}, 100)
		r := results[0]
		b.ReportMetric(r.NestedMs, "nestedloop_ms")
		b.ReportMetric(r.HashMs, "hash_ms")
	}
}

// BenchmarkRowVsColumn is Ext-6: the DSM motivation (1 of 8 columns).
func BenchmarkRowVsColumn(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 40_000
	for i := 0; i < b.N; i++ {
		results, err := bench.RowVsColumn(cfg, 8)
		reportResults(b, results, err)
	}
}

// BenchmarkOptimizer is Ext-7: advised layout vs naive and hand-tuned.
func BenchmarkOptimizer(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 60_000
	cfg.Queries = 10
	for i := 0; i < b.N; i++ {
		results, err := bench.AdvisorQuality(cfg)
		reportResults(b, results, err)
	}
}

// BenchmarkConcurrentThroughput is Ext-9: full-table-scan rows/sec at 1, 4
// and 16 goroutines (parallel scan workers and independent clients), hot
// and cold pool. Speedup metrics are relative to the 1-goroutine run of the
// same series; on multi-core hosts they show the concurrent read path
// scaling, on a single core they sit near 1.
func BenchmarkConcurrentThroughput(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 60_000
	for i := 0; i < b.N; i++ {
		results, err := bench.ConcurrentThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.RowsPerSec, "rows/sec:"+sanitize(r.Name))
			if r.Goroutines > 1 {
				b.ReportMetric(r.Speedup, "speedup:"+sanitize(r.Name))
			}
		}
	}
}

// BenchmarkIngestThroughput is Ext-10: durable concurrent insert rows/sec
// at 1, 4 and 16 writer goroutines, with background tail merging toggled.
// Speedups are relative to the 1-writer run of the same merge setting; they
// show fsync amortization (and, on multi-core hosts, the lock-free prepare
// phase) scaling ingest.
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 30_000
	for i := 0; i < b.N; i++ {
		results, err := bench.IngestThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.RowsPerSec, "rows/sec:"+sanitize(r.Name))
			if r.Writers > 1 {
				b.ReportMetric(r.Speedup, "speedup:"+sanitize(r.Name))
			}
		}
	}
}

// BenchmarkAggThroughput is Ext-13: pushed-down aggregation rows/sec —
// count, sum, hash group-by and expression aggregates at 1% and 100%
// selectivity, on the serial block pipeline and the morsel-parallel one.
// The parallel rows record GOMAXPROCS because their speedup is only
// meaningful beyond one processor.
func BenchmarkAggThroughput(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 200_000
	for i := 0; i < b.N; i++ {
		results, err := bench.AggThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.RowsPerSec, "rows/sec:"+sanitize(r.Name))
			if r.Mode == "parallel" {
				b.ReportMetric(r.ParallelSpeedup, "speedup:"+sanitize(r.Name))
			}
		}
	}
}

// BenchmarkReorg is Ext-8: query cost before/after reorganization.
func BenchmarkReorg(b *testing.B) {
	cfg := benchConfig(b)
	cfg.N = 60_000
	cfg.Queries = 10
	for i := 0; i < b.N; i++ {
		results, err := bench.Reorg(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.PagesQuery, "pages/query:"+sanitize(r.Name))
		}
	}
}
