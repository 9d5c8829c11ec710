// Command rsbench regenerates the paper's evaluation (Figure 2) and the
// extension experiments indexed in DESIGN.md.
//
// Usage:
//
//	rsbench -exp fig2 -n 1000000 -queries 200
//	rsbench -exp curve|cells|pagesize|codecs|fold|dsm|advisor|reorg|throughput|all
//	rsbench -exp fig2 -json > BENCH_fig2.json
//
// The paper's full scale is -n 10000000 (10M observations, ~45 s generate +
// load per layout); the default 1,000,000 reproduces the same shape in
// seconds. Results print as aligned tables with the paper's reference
// numbers where applicable, or as a JSON object with -json (one key per
// experiment, plus the config) so benchmark trajectories can be recorded as
// BENCH_*.json files across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"rodentstore/internal/bench"
)

var allExperiments = []string{"fig2", "curve", "cells", "pagesize", "codecs", "fold", "dsm", "advisor", "reorg", "throughput", "ingest", "agg", "compact"}

func main() {
	var (
		exp      = flag.String("exp", "fig2", "experiment: fig2|curve|cells|pagesize|codecs|fold|dsm|advisor|reorg|throughput|ingest|agg|compact|all")
		n        = flag.Int("n", 1_000_000, "number of observations (paper: 10000000)")
		queries  = flag.Int("queries", 200, "number of window queries (paper: 200)")
		area     = flag.Float64("area", 0.01, "query area fraction (paper: 0.01)")
		pageSize = flag.Int("pagesize", 1024, "page size in bytes (paper: 1 KB)")
		cells    = flag.Int("cells", 64, "grid cells per axis")
		dir      = flag.String("dir", os.TempDir(), "scratch directory")
		seed     = flag.Int64("seed", 1, "random seed")
		jsonOut  = flag.Bool("json", false, "emit results as one JSON object instead of tables")
		maxprocs = flag.Int("gomaxprocs", 0, "if > 0, set GOMAXPROCS before running (recorded in the -json header; on a single-core container values > 1 only add scheduler interleaving, not parallel speedup)")
	)
	flag.Parse()
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	cfg := bench.Config{
		N: *n, Queries: *queries, AreaFraction: *area,
		PageSize: *pageSize, GridCells: *cells, Dir: *dir, Seed: *seed,
	}

	// run executes one experiment, returning its raw results for -json.
	run := func(name string) (any, error) {
		switch name {
		case "fig2":
			return bench.Figure2(cfg)
		case "curve":
			return bench.CurveSeeks(cfg)
		case "cells":
			return bench.GridCellSweep(cfg, []int{16, 32, 64, 128, 256})
		case "pagesize":
			return bench.PageSizeSweep(cfg, []int{512, 1024, 4096, 16384, 65536})
		case "codecs":
			return bench.Codecs(cfg)
		case "fold":
			return bench.FoldRender([]int{1000, 5000, 20000, 50000}, 100), nil
		case "dsm":
			return bench.RowVsColumn(cfg, 8)
		case "advisor":
			return bench.AdvisorQuality(cfg)
		case "reorg":
			return bench.Reorg(cfg)
		case "throughput":
			return bench.ConcurrentThroughput(cfg)
		case "ingest":
			return bench.IngestThroughput(cfg)
		case "agg":
			return bench.AggThroughput(cfg)
		case "compact":
			return bench.SustainedCompaction(cfg)
		default:
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}

	var names []string
	if *exp == "all" {
		names = allExperiments
	} else {
		names = []string{*exp}
	}

	collected := make(map[string]any, len(names))
	for _, name := range names {
		if !*jsonOut {
			// The title doubles as a progress marker: experiments can run
			// for minutes at paper scale.
			fmt.Println(title(cfg, name))
		}
		data, err := run(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		collected[name] = data
		if !*jsonOut {
			if err := print(name, data); err != nil {
				fmt.Fprintf(os.Stderr, "rsbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// Parallel speedups are meaningless without knowing the processor
		// budget of the machine that produced the file, so every BENCH_*.json
		// records it.
		payload := map[string]any{
			"config": cfg,
			"runtime": map[string]any{
				"gomaxprocs": runtime.GOMAXPROCS(0),
				"numcpu":     runtime.NumCPU(),
			},
			"experiments": collected,
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// title describes one experiment; printed before it runs as a progress
// marker.
func title(cfg bench.Config, name string) string {
	switch name {
	case "fig2":
		return fmt.Sprintf("Figure 2: avg pages/query over %d observations, %d queries covering %.1f%% of area, %dB pages",
			cfg.N, cfg.Queries, cfg.AreaFraction*100, cfg.PageSize)
	case "curve":
		return "Ext-1: cell-ordering curves (the N3 -> N3' step)"
	case "cells":
		return "Ext-2: grid cell-size sweep"
	case "pagesize":
		return "Ext-3: page-size sweep (N4 layout)"
	case "codecs":
		return "Ext-4: codec ablation on the z-ordered grid"
	case "fold":
		return "Ext-5: fold rendering — Algorithm 1 (nested loops) vs hash (paper §4.2)"
	case "dsm":
		return "Ext-6: row vs column vs hybrid (1 of 8 columns scanned)"
	case "advisor":
		return "Ext-7: storage design optimizer vs hand-tuned layouts"
	case "reorg":
		return "Ext-8: reorganization strategies (paper §5)"
	case "throughput":
		return "Ext-9: concurrent read throughput (sharded pool, lock-free pager, parallel scan)"
	case "ingest":
		return "Ext-10: concurrent ingest throughput (group-commit WAL, staged inserts, background merge)"
	case "agg":
		return "Ext-13: aggregation throughput (serial block pipeline vs morsel scheduler)"
	case "compact":
		return "Ext-15: sustained ingest under leveled compaction (incremental folds vs full rewrites)"
	}
	return name
}

// print renders one experiment's results as an aligned text table (the
// title has already been printed).
func print(name string, data any) error {
	switch name {
	case "fig2":
		return printFig2(data.([]bench.Result))
	case "curve", "cells", "pagesize", "codecs", "dsm", "advisor":
		return printResults(data.([]bench.Result))
	case "fold":
		return printFold(data.([]bench.FoldResult))
	case "reorg":
		return printReorg(data.([]bench.ReorgResult))
	case "throughput":
		return printThroughput(data.([]bench.ThroughputResult))
	case "ingest":
		return printIngest(data.([]bench.IngestResult))
	case "agg":
		return printAgg(data.([]bench.AggResult))
	case "compact":
		return printCompact(data.([]bench.CompactResult))
	}
	return fmt.Errorf("no printer for %q", name)
}

func printCompact(results []bench.CompactResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "run\tpolicy\tstage\ttable rows\tinsert rows/sec\tscan rows/sec\tmerges\tMB rewritten\tMB/merge")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.0f\t%.0f\t%d\t%.2f\t%.2f\n",
			r.Name, r.Policy, r.Stage, r.TableRows, r.InsertRowsPerSec, r.ScanRowsPerSec,
			r.Merges, float64(r.MergeBytes)/(1<<20), float64(r.BytesPerMerge)/(1<<20))
	}
	return w.Flush()
}

func printAgg(results []bench.AggResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "run\taggregate\tselectivity\tmode\tprocs\trows\tgroups\tms\trows/sec\tvs serial")
	for _, r := range results {
		procs, parSpeed := "", ""
		if r.Mode == "parallel" {
			procs = fmt.Sprintf("%d", r.Gomaxprocs)
			parSpeed = fmt.Sprintf("%.2fx", r.ParallelSpeedup)
		}
		fmt.Fprintf(w, "%s\t%s\t%.0f%%\t%s\t%s\t%d\t%d\t%.1f\t%.0f\t%s\n",
			r.Name, r.Agg, r.Selectivity*100, r.Mode, procs, r.Rows, r.Groups, r.Ms, r.RowsPerSec, parSpeed)
	}
	return w.Flush()
}

func printFig2(results []bench.Result) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layout\tpages/query\tseeks/query\tms/query\trows/query\tdata pages\tpaper(10M)")
	for _, r := range results {
		paper := ""
		if p, ok := bench.PaperFigure2[r.Name]; ok {
			paper = fmt.Sprintf("%.0f", p)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.2f\t%.0f\t%d\t%s\n",
			r.Name, r.PagesQuery, r.SeeksQuery, r.MsQuery, r.RowsQuery, r.DataPages, paper)
	}
	return w.Flush()
}

func printResults(results []bench.Result) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tpages/query\tseeks/query\tseek dist\tms/query\trows/query\tdata pages")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.2f\t%.0f\t%d\n",
			r.Name, r.PagesQuery, r.SeeksQuery, r.SeekDist, r.MsQuery, r.RowsQuery, r.DataPages)
	}
	return w.Flush()
}

func printFold(results []bench.FoldResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rows\tgroups\tnested-loop ms\thash ms\tspeedup")
	for _, r := range results {
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.1fx\n", r.Rows, r.OutputRows, r.NestedMs, r.HashMs, r.Speedup)
	}
	return w.Flush()
}

func printReorg(results []bench.ReorgResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "state\tpages/query\treorg ms")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\n", r.Name, r.PagesQuery, r.ReorgMs)
	}
	return w.Flush()
}

func printIngest(results []bench.IngestResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "run\twriters\tmerge\trows\tms\trows/sec\tspeedup\tfinal tails")
	for _, r := range results {
		merge := "off"
		if r.AutoMerge {
			merge = "on"
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%.1f\t%.0f\t%.2fx\t%d\n",
			r.Name, r.Writers, merge, r.Rows, r.Ms, r.RowsPerSec, r.Speedup, r.FinalTails)
	}
	return w.Flush()
}

func printThroughput(results []bench.ThroughputResult) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "run\tmode\tgoroutines\tpool\trows\tms\trows/sec\tspeedup")
	for _, r := range results {
		temp := "cold"
		if r.Hot {
			temp = "hot"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\t%.1f\t%.0f\t%.2fx\n",
			r.Name, r.Mode, r.Goroutines, temp, r.Rows, r.Ms, r.RowsPerSec, r.Speedup)
	}
	return w.Flush()
}
