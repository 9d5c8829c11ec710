package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// samplesOf groups a report's untraced results: workload -> end-to-end
// metric -> one value per run.
func samplesOf(results []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range results {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
		out[r.Workload]["fail_ratio"] = append(out[r.Workload]["fail_ratio"], r.FailRatio)
	}
	return out
}

// printSummary prints, for a repeated invocation, each metric's median,
// quartiles and spread (quartile distance as a share of the median).
func printSummary(w io.Writer, results []*result) {
	samples := samplesOf(results)
	fmt.Fprintf(w, "\n%-15s %-12s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloadDefs {
		for _, m := range append(endToEnd, metricDef{Name: "fail_ratio", Unit: "ratio"}) {
			xs := samples[wl.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-15s %-12s %5d %14.4f %14.4f %14.4f %7.2f%% %6.2f\n", wl.Name, m.Name, len(xs), median(xs), q1, q3, 100*spread(xs), m.Bound)
		}
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict of one workload x metric pair. worse is how much the new median
// is worse than the old as a share of the old (negative: better).
func verdict(m metricDef, old, now []float64) (worse float64, v string) {
	mo, mn := median(old), median(now)
	if mo == 0 {
		return 0, "unresolved"
	}
	worse = (mn - mo) / mo
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case len(old) > 1 && spread(old) > m.Bound || len(now) > 1 && spread(now) > m.Bound:
		return worse, "unresolved" // the runs of one side disagree by more than the bound
	case worse > m.Bound:
		return worse, "regressed"
	case worse < -m.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareReports prints one row per workload x gated metric with its bound
// and verdict, and reports whether anything regressed.
func compareReports(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (%s)   new: %s (%s)\n", oldRep.Header.Commit, oldRep.Header.Date, newRep.Header.Commit, newRep.Header.Date)
	fmt.Fprintf(w, "%-15s %-12s %14s %8s %14s %8s %8s %6s  %s\n", "workload", "metric", "old median", "spread", "new median", "spread", "worse", "bound", "verdict")
	olds, news := samplesOf(oldRep.Results), samplesOf(newRep.Results)
	for _, wl := range workloadDefs {
		for _, m := range endToEnd {
			o, n := olds[wl.Name][m.Name], news[wl.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			worse, v := verdict(m, o, n)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-15s %-12s %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%% %6.2f  %s\n",
				wl.Name, m.Name, median(o), 100*spread(o), median(n), 100*spread(n), 100*worse, m.Bound, v)
		}
		if o, n := olds[wl.Name]["fail_ratio"], news[wl.Name]["fail_ratio"]; len(o) > 0 && len(n) > 0 {
			v := "unchanged"
			if median(n) > median(o) {
				v, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6f %8s %14.6f %8s %8s %6s  %s\n", wl.Name, "fail_ratio", median(o), "", median(n), "", "", "0", v)
		}
	}
	return regressed, nil
}
