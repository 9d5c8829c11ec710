package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; metrics_test.go keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: what a user of the store sees. Every
// workload reports every one of them, so each is a slot whose meaning per
// workload is fixed in workloadDefs (and tabulated in README.md).
//
// A bound is per metric, not per workload, so it is set by the workload on
// which the metric repeats worst, at about three times the spread seen there
// over the acceptance runs (README.md, "Steadiness"). On the shared two-core
// sandbox whole runs come out up to a tenth slower for minutes at a time,
// which no statistic inside a run removes, so the timing bounds are at the
// driver's maximum.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.25},
}

// perLayer are the reported-only metrics of single layers (layer = package
// name) from the traced run, plus the per-class client latencies and the
// counts the paper's Figure 2 is made of. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "vfs.data_read_ops", Unit: "count", Better: "lower"},
	{Name: "vfs.data_read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vfs.data_write_ops", Unit: "count", Better: "lower"},
	{Name: "vfs.data_write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vfs.data_syncs", Unit: "count", Better: "lower"},
	{Name: "vfs.log_write_ops", Unit: "count", Better: "lower"},
	{Name: "vfs.log_write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vfs.log_syncs", Unit: "count", Better: "lower"},
	{Name: "vfs.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.write_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.sync_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "pager.pages_per_op", Unit: "count", Better: "lower"},
	{Name: "pager.seeks_per_op", Unit: "count", Better: "lower"},
	{Name: "pager.ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "pager.run_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "buffer.miss_pages_per_op", Unit: "count", Better: "lower"},
	{Name: "buffer.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.miss_ns", Unit: "ns", Better: "lower"},
	{Name: "segment.view_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "compress.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "algebra.compile_us", Unit: "us", Better: "lower"},
	{Name: "algebra.filter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "vec.agg_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "vec.box_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "index.pages_per_lookup", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_insert", Unit: "count", Better: "lower"},
	{Name: "txn.checkpoints", Unit: "count", Better: "lower"},
	{Name: "table.merges", Unit: "count", Better: "lower"},
	{Name: "table.merge_rows", Unit: "count", Better: "lower"},
	{Name: "table.merge_bytes", Unit: "bytes", Better: "lower"},
	{Name: "table.compact_s", Unit: "s", Better: "lower"},
	{Name: "table.drain_s", Unit: "s", Better: "lower"},
	{Name: "table.self_share", Unit: "ratio", Better: "lower"},
	{Name: "layout.load_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.range_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.filter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rowscan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lookup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.insert_p50_ms", Unit: "ms", Better: "lower"},
}

// Operation classes, used in metric names.
const (
	classWindow  = "window"
	classRange   = "range"
	classFilter  = "filter"
	classRowscan = "rowscan"
	classAgg     = "agg"
	classLookup  = "lookup"
	classInsert  = "insert"
)

var classes = []string{classWindow, classRange, classFilter, classRowscan, classAgg, classLookup, classInsert}
