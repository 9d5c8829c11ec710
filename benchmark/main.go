// Command benchmark is RodentStore's gating benchmark: four named workloads
// driven through the public rodentstore API, reporting end-to-end metrics
// with tracing off and per-layer metrics from a separate traced run. See
// README.md for the workloads, the metrics and how they relate.
//
//	bash benchmark/run.sh --workload window_cold --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -trace 2                 # all workloads, untraced and traced
//	bash benchmark/run.sh -runs 5 -json new.json   # repeat, keep every sample
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadDef names a workload, says why it exists, and fixes what each
// end-to-end slot means on it (alias is the metric's name in the issue that
// defined the benchmark).
type workloadDef struct {
	Name  string
	Why   string
	run   func(*env) error
	alias map[string]string
}

var workloadDefs = []workloadDef{
	{
		"window_cold",
		"the paper's Figure 2 experiment: 1% window queries under N4 with no pool; planner, grid pruning, pager and vfs do the work, few rows are decoded",
		runWindowCold,
		map[string]string{"ops_per_s": "window_per_s", "rows_per_s": "rows returned", "p50_ms": "window_p50_ms"},
	},
	{
		"scan_hot",
		"full-table filters, a row-at-a-time scan and a group-by on a table that fits the pool: decode, codecs, predicate and aggregate kernels; no I/O after warm-up",
		runScanHot,
		map[string]string{"ops_per_s": "script ops", "rows_per_s": "rows examined", "p50_ms": "filter_p50_ms"},
	},
	{
		"ingest_durable",
		"durable 256-row inserts into a levelled table with background folds: WAL append and fsync, commit, catalog delta, fold rendering, compaction",
		runIngestDurable,
		map[string]string{"ops_per_s": "inserts", "rows_per_s": "ingest_rows_per_s", "p50_ms": "insert_p50_ms"},
	},
	{
		"macro_mixed",
		"one writer and one reader (index lookups, time ranges, a group-by) on one levelled table while folds run: a gain on one side bought on the other shows here",
		runMacroMixed,
		map[string]string{"ops_per_s": "read_ops_per_s", "rows_per_s": "ingest_rows_per_s", "p50_ms": "lookup_p50_ms"},
	},
}

// header is recorded in every JSON report.
type header struct {
	Commit      string `json:"commit"`
	Date        string `json:"date"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Seed        int64  `json:"seed"`
	PageSize    int    `json:"page_size"`
	FlushPolicy string `json:"flush_policy"`
	Scale       scale  `json:"scale"`
}

// report is what -json writes and -compare reads.
type report struct {
	Header   header                        `json:"header"`
	EndToEnd []metricDef                   `json:"end_to_end_metrics"`
	Results  []*result                     `json:"results"`
	Overhead map[string]map[string]float64 `json:"trace_overhead,omitempty"`
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; 2: both, and the tracing overhead")
		scaleArg = flag.String("scale", "full", "input sizes: full or smoke")
		dir      = flag.String("dir", filepath.Join(".bench_build", "data"), "directory for database files and the span file")
		runs     = flag.Int("runs", 1, "repeat the invocation this many times (seed, seed+1, ...) and print median and quartiles")
		jsonOut  = flag.String("json", "", "also write the full report to this file")
		commit   = flag.String("commit", "unknown", "commit to record in the report")
		compare  = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scaleArg))
	}
	var chosen []workloadDef
	for _, w := range workloadDefs {
		if *workload == "all" || *workload == w.Name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || *runs < 1 || *trace < 0 || *trace > 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}

	rep := &report{
		Header: header{
			Commit: *commit, Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: *seed,
			PageSize: pageSize, FlushPolicy: flushPolicy, Scale: sc,
		},
		EndToEnd: endToEnd,
		Overhead: map[string]map[string]float64{},
	}
	fmt.Printf("rodentstore benchmark: commit %s, %s, GOMAXPROCS %d of %d CPUs, scale %s, %gs timed, closed loop\nflush policy: %s\n",
		rep.Header.Commit, rep.Header.GoVersion, rep.Header.GOMAXPROCS, rep.Header.NumCPU, sc.Name, *seconds, flushPolicy)

	correct := true
	for i := 0; i < *runs; i++ {
		for _, w := range chosen {
			var plain *result
			for _, traced := range []bool{false, true} {
				if traced && *trace == 0 || !traced && *trace == 1 {
					continue
				}
				res, err := runWorkload(w, *seed+int64(i), time.Duration(*seconds*float64(time.Second)), sc, *dir, traced)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				printResult(w, res)
				rep.Results = append(rep.Results, res)
				correct = correct && res.Correct
				if !traced {
					plain = res
				} else if plain != nil {
					rep.Overhead[w.Name] = overhead(plain, res)
					fmt.Printf("%-15s trace_overhead (traced / untraced): %v\n", w.Name, formatRatios(rep.Overhead[w.Name]))
				}
			}
		}
	}
	if *runs > 1 {
		printSummary(os.Stdout, rep.Results)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fatal(err)
		}
	}
	// The driver reads the last line: the one result of a single-workload,
	// single-run invocation.
	if len(rep.Results) == 1 {
		line, err := json.Marshal(driverLineOf(rep.Results[0]))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadDefs {
		out = append(out, w.Name)
	}
	return out
}

// runWorkload runs one workload once in a scratch directory of its own,
// removed afterwards; the traced run leaves its span file in dir.
func runWorkload(w workloadDef, seed int64, seconds time.Duration, sc scale, dir string, traced bool) (*result, error) {
	work, err := os.MkdirTemp(dir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := newEnv(w.Name, seed, seconds, sc, work, traced)
	err = durabilityOK(seed)
	if err != nil {
		e.mismatch("durability_ok: %v", err)
	}
	e.res.Info["durability_ok"] = err == nil
	if err := w.run(e); err != nil {
		return nil, err
	}
	for _, m := range endToEnd {
		if v, ok := e.res.EndToEnd[m.Name]; !ok || v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s missing or zero", m.Name)
		}
	}
	if traced {
		spans := filepath.Join(dir, fmt.Sprintf("trace-%s.json", w.Name))
		if err := e.tr.write(spans); err != nil {
			return nil, err
		}
		e.res.Info["span_file"] = spans
		e.res.Info["spans"] = e.tr.mark()
	}
	return e.res, nil
}

func driverLineOf(res *result) driverLine {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		defs, values = perLayer, res.PerLayer
	}
	for _, m := range defs {
		line.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return line
}

func printResult(w workloadDef, res *result) {
	mode := "tracing off"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (seed %d, %s) — %s\n", res.Workload, res.Seed, mode, w.Why)
	for _, k := range sortedKeys(res.Info) {
		fmt.Printf("   %s: %v\n", k, res.Info[k])
	}
	for _, m := range endToEnd {
		note := ""
		if a := w.alias[m.Name]; a != "" {
			note = "  (" + a + ")"
		}
		fmt.Printf("%-15s %-28s %14.4f %-6s gated, bound %.2f%s\n", res.Workload, m.Name, res.EndToEnd[m.Name], m.Unit, m.Bound, note)
	}
	fmt.Printf("%-15s %-28s %14.6f %-6s %d failed of %d attempted\n", res.Workload, "fail_ratio", res.FailRatio, "ratio", res.Failed, res.Attempted)
	for _, class := range classes {
		s, ok := res.Classes[class]
		if !ok {
			continue
		}
		fmt.Printf("%-15s %-28s %14.4f %-6s reported, %d samples\n", res.Workload, class+"_p50_ms", s.P50Ms, "ms", s.Samples)
		if s.TailPct > 0 {
			fmt.Printf("%-15s %-28s %14.4f %-6s reported, p%g of %d samples\n", res.Workload, class+"_tail_ms", s.TailMs, "ms", s.TailPct, s.Samples)
		} else {
			fmt.Printf("%-15s %-28s %14s %-6s reported, %d samples are too few for a tail\n", res.Workload, class+"_tail_ms", "-", "ms", s.Samples)
		}
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("%-15s %-28s %14.4f %-6s per layer\n", res.Workload, m.Name, v, m.Unit)
		}
	}
	for _, k := range sortedKeys(res.Errors) {
		fmt.Printf("%-15s error x%d: %s\n", res.Workload, res.Errors[k], k)
	}
	for _, m := range res.Mismatch {
		fmt.Printf("%-15s OUTPUT CHECK FAILED: %s\n", res.Workload, m)
	}
}

// overhead is traced / untraced for each end-to-end timing.
func overhead(plain, traced *result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range endToEnd {
		if m.Unit == "ratio" || plain.EndToEnd[m.Name] == 0 {
			continue
		}
		out[m.Name] = traced.EndToEnd[m.Name] / plain.EndToEnd[m.Name]
	}
	return out
}

func formatRatios(r map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(r) {
		parts = append(parts, fmt.Sprintf("%s %.3f", k, r[k]))
	}
	return strings.Join(parts, ", ")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
