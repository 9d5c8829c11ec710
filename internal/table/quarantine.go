package table

// Corruption quarantine (opt-in via ScanOptions.Quarantine): instead of the
// default fail-stop behavior — any unreadable block aborts the scan — a
// quarantined scan skips the damaged extent, records it in a report, and
// keeps serving every other extent. Transient I/O errors are retried with
// capped backoff first; only errors that persist (or that are corruption by
// construction: checksum mismatches, undecodable blocks) quarantine the
// extent. The report names exactly what was skipped and how many rows it
// held, so callers can decide whether a partial answer is acceptable.

import (
	"errors"
	"sync"
	"time"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
)

const (
	// quarRetries is how many times a transient (non-corruption) read error
	// is retried before the block is treated as corrupt.
	quarRetries = 3
	// quarBackoff is the first retry delay; it doubles per attempt up to
	// quarBackoffCap. The budget is deliberately small — a scan holding the
	// table's shared lock must not stall for human-scale durations.
	quarBackoff    = 250 * time.Microsecond
	quarBackoffCap = 2 * time.Millisecond
)

// SkippedExtent is one quarantined extent in a scan report.
type SkippedExtent struct {
	// Extent is the page run that could not be read.
	Extent pager.Extent
	// Blocks is how many blocks of the scan fell in the extent.
	Blocks int
	// Rows is the metadata row count of those blocks — an upper bound on
	// rows the scan could not return.
	Rows int64
	// Err is the first error observed for the extent.
	Err error
}

// ScanReport describes what a quarantined scan skipped. An empty Skipped
// list means the scan saw everything.
type ScanReport struct {
	Skipped []SkippedExtent
}

// quarState is the shared quarantine bookkeeping of one cursor; parallel
// scan workers record into it concurrently.
type quarState struct {
	mu      sync.Mutex
	index   map[pager.PageID]int // extent start -> Skipped index
	skipped []SkippedExtent
}

func newQuarState() *quarState {
	return &quarState{index: make(map[pager.PageID]int)}
}

// isCorrupt reports whether err is corruption by construction — a failed
// page checksum or an undecodable block — as opposed to an I/O error that
// might be transient.
func isCorrupt(err error) bool {
	var ce *segment.ErrCorruptExtent
	var cp *pager.ErrCorruptPage
	return errors.As(err, &ce) || errors.As(err, &cp)
}

// quarExtent resolves which extent err belongs to: the typed corruption
// errors carry it; other errors are attributed to the part's first readable
// segment (the best identity available).
func quarExtent(p *part, err error) pager.Extent {
	var ce *segment.ErrCorruptExtent
	if errors.As(err, &ce) {
		return pager.Extent{Start: ce.Start, Count: ce.Pages}
	}
	var cp *pager.ErrCorruptPage
	if errors.As(err, &cp) {
		for _, entry := range p.entries {
			m := entry.Meta
			if cp.Page >= m.ExtentStart && cp.Page < m.ExtentStart+pager.PageID(m.ExtentPages) {
				return pager.Extent{Start: m.ExtentStart, Count: m.ExtentPages}
			}
		}
	}
	m := p.entries[firstReadSeg(p)].Meta
	return pager.Extent{Start: m.ExtentStart, Count: m.ExtentPages}
}

// handle applies the quarantine policy to a failed block load: errors from
// already-quarantined extents skip immediately; corruption quarantines
// immediately; anything else is retried with capped backoff (via retry,
// which must re-attempt the same load) and quarantined only if it keeps
// failing. It reports whether the block was recorded as skipped; false
// means a retry succeeded.
func (q *quarState) handle(p *part, ref blockRef, err error, retry func() error) (skipped bool) {
	q.mu.Lock()
	_, known := q.index[quarExtent(p, err).Start]
	q.mu.Unlock()
	if !known && !isCorrupt(err) {
		backoff := quarBackoff
		for i := 0; i < quarRetries; i++ {
			time.Sleep(backoff)
			if backoff *= 2; backoff > quarBackoffCap {
				backoff = quarBackoffCap
			}
			if err = retry(); err == nil {
				return false
			}
			if isCorrupt(err) {
				break
			}
		}
	}
	q.record(p, ref, err)
	return true
}

// record adds one skipped block to the report, aggregating per extent.
func (q *quarState) record(p *part, ref blockRef, err error) {
	ext := quarExtent(p, err)
	rows := int64(blockRowCount(p, ref.block))
	q.mu.Lock()
	defer q.mu.Unlock()
	i, ok := q.index[ext.Start]
	if !ok {
		i = len(q.skipped)
		q.index[ext.Start] = i
		q.skipped = append(q.skipped, SkippedExtent{Extent: ext, Err: err})
	}
	q.skipped[i].Blocks++
	q.skipped[i].Rows += rows
}

// report snapshots the skip list.
func (q *quarState) report() ScanReport {
	if q == nil {
		return ScanReport{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]SkippedExtent, len(q.skipped))
	copy(out, q.skipped)
	return ScanReport{Skipped: out}
}
