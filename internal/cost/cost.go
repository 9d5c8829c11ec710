// Package cost implements RodentStore's I/O cost model (paper §5): "our
// initial plans are for it to count bytes of I/O as well as disk seeks".
// CPU costs are ignored unless decompression dominates, which prior work
// (Abadi et al., cited by the paper) shows it does not for the schemes used
// here; a small per-row CPU term is still exposed for calibration.
//
// The model converts the pager's logical counters (pages read, seeks) into
// estimated milliseconds, which is the unit the storage API's scan_cost and
// getElement_cost methods report (paper §4.1).
package cost

// Model holds the device calibration constants.
type Model struct {
	// SeekMs is the cost of one disk seek (a non-sequential page fetch).
	SeekMs float64
	// PageReadMs is the cost of sequentially reading one page.
	PageReadMs float64
	// CPURowMs is the per-row processing cost (decode + predicate).
	CPURowMs float64
}

// DefaultModel models a 2009-era commodity disk with 1 KB pages: ~4 ms
// average seek (the paper's few-ms regime), ~100 MB/s sequential bandwidth
// (1 KB / 100 MB/s = 0.01 ms), and a negligible per-row CPU cost.
func DefaultModel() Model {
	return Model{SeekMs: 4.0, PageReadMs: 0.01, CPURowMs: 0.00005}
}

// Estimate is a predicted I/O footprint.
type Estimate struct {
	Pages uint64
	Seeks uint64
	Rows  int64
}

// Ms converts an estimate to milliseconds under the model.
func (m Model) Ms(e Estimate) float64 {
	return float64(e.Seeks)*m.SeekMs + float64(e.Pages)*m.PageReadMs + float64(e.Rows)*m.CPURowMs
}
