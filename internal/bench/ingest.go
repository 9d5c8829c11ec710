package bench

import (
	"fmt"
	"sync"
	"time"

	"rodentstore/internal/cartel"
	"rodentstore/internal/value"
)

// IngestResult is one concurrent-write measurement: durable insert
// throughput at a given number of writer goroutines, with or without
// background tail merging.
type IngestResult struct {
	// Name labels the run, e.g. "ingest w=16 merge=off".
	Name string
	// Writers is the number of concurrent inserter goroutines.
	Writers int
	// AutoMerge reports whether the background tail-merge worker ran.
	AutoMerge bool
	// Batches and Rows are the total inserted batches and rows.
	Batches int
	Rows    int64
	// Ms is the wall time from first insert issued to last insert
	// acknowledged. Background merges are not waited on — they run off the
	// callers' path, which is the point.
	Ms float64
	// RowsPerSec is Rows / wall seconds.
	RowsPerSec float64
	// Speedup is RowsPerSec over the 1-writer run of the same merge setting.
	Speedup float64
	// FinalTails is the table's tail-batch count after the run (and after
	// the merge queue drained, when merging): the read-amplification the
	// next scan pays.
	FinalTails int
}

// IngestWriterCounts is the concurrency ladder IngestThroughput measures.
var IngestWriterCounts = []int{1, 4, 16}

// ingestBatchRows is the rows per Insert call. Small batches (an OLTP-ish
// shape: a handful of rows per durable commit) make the commit fsync the
// dominant cost, which is what the shared fsync ticket amortizes.
const ingestBatchRows = 32

// ingestMergeTails is the merge policy for the merge=on axis: fold tails
// once 64 batches (2048 rows) accumulate, so reorganizations amortize over
// many commits instead of chasing every insert.
const ingestMergeTails = 64

// IngestThroughput measures the concurrent write path end to end (Ext-10):
// durable staged inserts (validate/transform/encode with no table lock,
// publish under a short exclusive lock, tail pages WAL-logged) into one
// table from 1/4/16 concurrent writers — one fsync acknowledges every
// commit that arrived while the previous fsync was in flight, which is where
// the multi-writer speedup comes from. One ablation axis, background merge
// on/off: with it on, accumulated tail batches are folded into the main
// rendering by the engine's worker off the insert path, so the catalog (and
// scan read-amplification) stays bounded; off lets tails pile up, the §5
// "reorganize only new data" cost made visible.
//
// Rows are pre-generated and pre-batched; the timer covers only Insert
// calls. Speedups are relative to the 1-writer run of the same axis. Like
// Ext-9 this is a scaling probe: on a single core the speedup comes from
// overlapping fsync latency with encode work, on multi-core hardware the
// lock-free prepare phase adds CPU parallelism on top.
func IngestThroughput(cfg Config) ([]IngestResult, error) {
	rows := cartel.Generate(cartel.DefaultConfig(cfg.N))
	var batches [][]value.Row
	for lo := 0; lo < len(rows); lo += ingestBatchRows {
		hi := lo + ingestBatchRows
		if hi > len(rows) {
			hi = len(rows)
		}
		batches = append(batches, rows[lo:hi])
	}

	var out []IngestResult
	for _, merge := range []bool{false, true} {
		var base float64
		for _, w := range IngestWriterCounts {
			r, err := runIngest(cfg, batches, w, merge)
			if err != nil {
				return nil, err
			}
			if w == IngestWriterCounts[0] {
				base = r.RowsPerSec
			}
			if base > 0 {
				r.Speedup = r.RowsPerSec / base
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// runIngest times one configuration: writers goroutines split the batch
// list round-robin and insert into a fresh table.
func runIngest(cfg Config, batches [][]value.Row, writers int, merge bool) (IngestResult, error) {
	e, err := newEnv(cfg, "ingest")
	if err != nil {
		return IngestResult{}, err
	}
	defer e.close()
	e.eng.SyncInserts = true
	if merge {
		e.eng.EnableAutoMerge(ingestMergeTails)
		defer e.eng.DisableAutoMerge()
	}
	// chunk matches the insert batch size: one block per tail batch.
	layout := fmt.Sprintf("chunk[%d](rows(Ingest))", ingestBatchRows)
	if err := e.eng.Create("Ingest", cartel.Schema(), layout); err != nil {
		return IngestResult{}, err
	}

	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batches); i += writers {
				if err := e.eng.Insert("Ingest", batches[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return IngestResult{}, err
	}

	rows, err := e.eng.RowCount("Ingest")
	if err != nil {
		return IngestResult{}, err
	}
	e.eng.WaitMerges()
	if err := e.eng.MergeErr(); err != nil {
		return IngestResult{}, fmt.Errorf("background merge: %w", err)
	}
	tails, err := tailCount(e, "Ingest")
	if err != nil {
		return IngestResult{}, err
	}

	secs := elapsed.Seconds()
	rps := 0.0
	if secs > 0 {
		rps = float64(rows) / secs
	}
	mergeLabel := "off"
	if merge {
		mergeLabel = "on"
	}
	return IngestResult{
		Name:       fmt.Sprintf("ingest w=%d merge=%s", writers, mergeLabel),
		Writers:    writers,
		AutoMerge:  merge,
		Batches:    len(batches),
		Rows:       rows,
		Ms:         float64(elapsed.Microseconds()) / 1000.0,
		RowsPerSec: rps,
		FinalTails: tails,
	}, nil
}

// tailCount reads the table's tail-batch count from the catalog.
func tailCount(e *env, name string) (int, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return 0, err
	}
	return len(tab.Tails), nil
}
