// Command rsbench runs the paper's evaluation (Figure 2) and the ablation
// experiments indexed in DESIGN.md — each experiment's one runner.
//
// Usage:
//
//	rsbench -exp fig2 -n 1000000 -queries 200
//	rsbench -exp curve|cells|pagesize|codecs|fold|dsm|advisor|reorg|all
//
// The paper's full scale is -n 10000000 (10M observations, ~45 s generate +
// load per layout); the default 1,000,000 reproduces the same shape in
// seconds. Results print as aligned tables with the paper's reference
// numbers where applicable. The engine's speed is tracked by the gating
// benchmark (BENCHMARK.json, benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"rodentstore/internal/bench"
)

var allExperiments = []string{"fig2", "curve", "cells", "pagesize", "codecs", "fold", "dsm", "advisor", "reorg"}

func main() {
	var (
		exp      = flag.String("exp", "fig2", "experiment: fig2|curve|cells|pagesize|codecs|fold|dsm|advisor|reorg|all")
		n        = flag.Int("n", 1_000_000, "number of observations (paper: 10000000)")
		queries  = flag.Int("queries", 200, "number of window queries (paper: 200)")
		area     = flag.Float64("area", 0.01, "query area fraction (paper: 0.01)")
		pageSize = flag.Int("pagesize", 1024, "page size in bytes (paper: 1 KB)")
		cells    = flag.Int("cells", 64, "grid cells per axis")
		dir      = flag.String("dir", os.TempDir(), "scratch directory")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := bench.Config{
		N: *n, Queries: *queries, AreaFraction: *area,
		PageSize: *pageSize, GridCells: *cells, Dir: *dir, Seed: *seed,
	}

	// run executes one experiment, returning its raw results.
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

	for _, name := range names {
		// The title doubles as a progress marker: experiments can run for
		// minutes at paper scale.
		fmt.Println(title(cfg, name))
		data, err := run(name)
		if err == nil {
			err = print(name, data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
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
	}
	return fmt.Errorf("no printer for %q", name)
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
