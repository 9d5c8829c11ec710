package main

import (
	"testing"
	"time"
)

func smokeRun(t *testing.T, w workloadDef, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, seed, 200*time.Millisecond, scales["smoke"], t.TempDir(), traced)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d mismatches=%v errors=%v", w.Name, res.Correct, res.Failed, res.Attempted, res.Mismatch, res.Errors)
	}
	if res.Info["durability_ok"] != true {
		t.Fatalf("%s: durability_ok = %v", w.Name, res.Info["durability_ok"])
	}
	return res
}

// A smoke-scale pass of all four workloads, untraced and traced: every
// named metric is there, the output checks pass, and the counts that must
// depend on the seed alone do.
func TestSmokeAllWorkloads(t *testing.T) {
	// Which per-layer metrics each workload must report as more than zero.
	positive := map[string][]string{
		"window_cold":    {"vfs.data_read_ops", "vfs.read_busy_s", "pager.pages_per_op", "pager.seeks_per_op", "pager.ns_per_page", "pager.run_ns_per_page", "buffer.hit_ns", "buffer.miss_ns", "segment.view_ns_per_block", "compress.decode_ns_per_row", "algebra.compile_us", "algebra.filter_ns_per_row", "vec.box_ns_per_row", "layout.load_rows_per_s", "client.window_p50_ms"},
		"scan_hot":       {"segment.view_ns_per_block", "compress.decode_ns_per_row", "algebra.filter_ns_per_row", "vec.agg_ns_per_row", "vec.box_ns_per_row", "table.compact_s", "client.filter_p50_ms", "client.rowscan_p50_ms", "client.agg_p50_ms"},
		"ingest_durable": {"vfs.data_write_bytes", "vfs.log_write_bytes", "vfs.log_syncs", "vfs.sync_busy_s", "vfs.write_amp", "wal.append_us", "wal.sync_us", "wal.fsyncs_per_insert", "txn.checkpoints", "table.merges", "table.merge_rows", "table.merge_bytes", "table.compact_s", "client.insert_p50_ms"},
		"macro_mixed":    {"vfs.write_amp", "pager.pages_per_op", "index.pages_per_lookup", "wal.fsyncs_per_insert", "table.merges", "client.lookup_p50_ms", "client.range_p50_ms", "client.agg_p50_ms", "client.insert_p50_ms"},
	}
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			plain := smokeRun(t, w, 1, false)
			traced := smokeRun(t, w, 1, true)
			other := smokeRun(t, w, 2, false)
			for _, m := range endToEnd {
				if plain.EndToEnd[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %v", m.Name, plain.EndToEnd[m.Name])
				}
			}
			line := driverLineOf(traced)
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for _, name := range positive[w.Name] {
				if traced.PerLayer[name] <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", name, traced.PerLayer[name])
				}
			}
			if len(driverLineOf(plain).Metrics) != len(endToEnd) {
				t.Error("untraced result line does not carry exactly the end-to-end metrics")
			}
			if traced.Info["spans"].(int) == 0 {
				t.Error("the traced run recorded no spans")
			}
			// Same seed: the page counts repeat exactly, traced or not.
			for _, name := range []string{"pager.pages_per_op", "pager.seeks_per_op", "index.pages_per_lookup"} {
				if w.Name == "macro_mixed" && name != "index.pages_per_lookup" || w.Name == "ingest_durable" {
					continue // two clients, or timed background folds: these vary
				}
				if plain.PerLayer[name] != traced.PerLayer[name] {
					t.Errorf("%s: %v and %v for the same seed", name, plain.PerLayer[name], traced.PerLayer[name])
				}
			}
			switch w.Name {
			case "window_cold":
				if plain.PerLayer["pager.pages_per_op"] == other.PerLayer["pager.pages_per_op"] {
					t.Error("pages per query did not change with the seed")
				}
			case "macro_mixed":
				if plain.PerLayer["index.pages_per_lookup"] <= 0 {
					t.Error("index.pages_per_lookup is zero")
				}
			}
		})
	}
}
