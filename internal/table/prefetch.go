package table

// The scan I/O pipeline: coalesced run reads and asynchronous prefetch.
//
// This is the fetch stage of the block pipeline (see scan.go): a runLoader
// belongs to one blockExec, whose run calls ensure before a block decodes.
// The block sequence is planned into runs of physically adjacent blocks
// (buildRuns). With ScanOptions.Coalesce the loader fetches each run's bytes
// with one large positional read (segment.PreloadRun) instead of one range
// read per block; with ScanOptions.Prefetch a per-loader prefetcher goroutine
// additionally reads the NEXT run on cloned readers while the current one
// decodes — classic double buffering, bounded to two buffer sets.
//
// Ownership follows the lease discipline the rest of the scan pipeline uses
// (see the leaselease analyzer): every prefetched buffer set is leased from
// the prefetcher via LeaseRun, whose release func is the single point that
// recycles it. A set is released exactly when no reader references it any
// more — after every reader of the part has adopted the next run's bytes
// (or dropped its run) — on every path: normal advance, quarantine retry,
// early Close, and abandoned-cursor cleanup.
//
// Error handling preserves the quarantine semantics of per-block reads: a
// coalesced read that fails mid-run still yields its verified prefix, and
// only the failed tail [b, hi) is retried (fetchTail) — never blocks that
// already read cleanly. A tail that cannot be read at all surfaces the error
// on the exact block that needs it, so quarState retries/records that block
// like any other.

import (
	"sync"
	"sync/atomic"

	"rodentstore/internal/segment"
)

// scanIO are the cursor-internal knobs of the scan I/O pipeline.
type scanIO struct {
	coalesce, prefetch bool
}

// Run planning bounds: a run stops growing at runMaxBlocks blocks or when
// its byte span exceeds runByteBudget (per segment), whichever comes first.
// 1 MiB is large enough to amortize per-read overhead on any disk yet small
// enough that double buffering stays a bounded fraction of scan memory.
const (
	runByteBudget = 1 << 20
	runMaxBlocks  = 64
)

// segRun is one planned run: blocks [lo, hi) of one part, physically
// adjacent in every segment of the part (block indices are shared across a
// part's segments).
type segRun struct {
	part   int
	lo, hi int
}

// buildRuns coalesces an ordered block sequence into runs, reusing dst's
// capacity. Only immediately adjacent blocks of the same part coalesce; a
// pruning gap starts a new run (re-reading pruned blocks to bridge a gap
// would defeat the pruning).
func buildRuns(dst []segRun, seq []blockRef, parts []*part) []segRun {
	dst = dst[:0]
	for _, ref := range seq {
		p := parts[ref.part]
		blocks := p.entries[firstReadSeg(p)].Meta.Blocks
		if n := len(dst); n > 0 {
			r := &dst[n-1]
			if r.part == ref.part && ref.block == r.hi && r.hi-r.lo < runMaxBlocks {
				first, last := blocks[r.lo], blocks[ref.block]
				if last.Off+uint64(last.Len)-first.Off <= runByteBudget {
					r.hi = ref.block + 1
					continue
				}
			}
		}
		dst = append(dst, segRun{part: ref.part, lo: ref.block, hi: ref.block + 1})
	}
	return dst
}

// segBuf is one segment's fetched run bytes within a prefetched set.
type segBuf struct {
	si   int // segment index within the part
	data []byte
	good int // leading blocks of the run fully covered by data
}

// runFetch is one completed prefetch: the run, its per-segment buffers, the
// number of leading blocks covered by EVERY segment, and the first fetch
// error (the tail past good, if any).
type runFetch struct {
	run  segRun
	segs []segBuf
	good int
	err  error
}

// prefetchInFlight counts leased-and-unreleased prefetch sets across all
// scans; tests assert it returns to zero after Close under fault injection.
var prefetchInFlight atomic.Int64

// errPrefetchClosed reports a lease attempt on a closed prefetcher; the
// loader degrades to synchronous reads.
type prefetchClosedError struct{}

func (prefetchClosedError) Error() string { return "table: prefetcher closed" }

var errPrefetchClosed = prefetchClosedError{}

// prefetcher reads runs ahead of the scan on its own goroutine, over its own
// reader clones (segment.FetchRunInto touches no mutable reader state, and
// the clones are the prefetcher's alone). One request may be outstanding at
// a time (reqs/outs are buffered(1)); buffer sets cycle through free, so at
// most two sets exist: the one the scan decodes and the one being fetched.
type prefetcher struct {
	parts  []*part
	clones [][]*segment.Reader // lazily built, owned by the loop goroutine
	reqs   chan segRun
	outs   chan runFetch
	free   chan []segBuf
	done   chan struct{}
	stop   sync.Once
	wg     sync.WaitGroup
}

func newPrefetcher(parts []*part) *prefetcher {
	pf := &prefetcher{
		parts:  parts,
		clones: make([][]*segment.Reader, len(parts)),
		reqs:   make(chan segRun, 1),
		outs:   make(chan runFetch, 1),
		free:   make(chan []segBuf, 2),
		done:   make(chan struct{}),
	}
	pf.free <- nil // two buffer sets, allocated on first use
	pf.free <- nil
	pf.wg.Add(1)
	go pf.loop()
	return pf
}

func (pf *prefetcher) loop() {
	defer pf.wg.Done()
	for {
		var r segRun
		select {
		case r = <-pf.reqs:
		case <-pf.done:
			return
		}
		var segs []segBuf
		select {
		case segs = <-pf.free:
		case <-pf.done:
			return
		}
		rf := pf.fetch(r, segs)
		select {
		case pf.outs <- rf:
		case <-pf.done:
			return
		}
	}
}

// fetch reads run r's bytes for every needed segment of its part, reusing
// the buffers of a recycled set. Errors do not abort the set: each segment
// keeps its verified prefix and the first error rides along for the loader
// to surface on the first uncovered block.
func (pf *prefetcher) fetch(r segRun, prev []segBuf) runFetch {
	if pf.clones[r.part] == nil {
		pf.clones[r.part] = cloneReaders(pf.parts[r.part].readers)
	}
	rf := runFetch{run: r, good: r.hi - r.lo}
	k := 0
	for si, rd := range pf.clones[r.part] {
		if rd == nil {
			continue
		}
		var buf []byte
		if k < len(prev) {
			buf = prev[k].data
		}
		k++
		data, good, err := rd.FetchRunInto(buf, r.lo, r.hi)
		rf.segs = append(rf.segs, segBuf{si: si, data: data, good: good})
		if good < rf.good {
			rf.good = good
		}
		if err != nil && rf.err == nil {
			rf.err = err
		}
	}
	return rf
}

// request hands the prefetcher its next run. It never blocks: the loader
// requests a new run only after leasing the previous result, so the
// buffered(1) channel always has room (the done case covers shutdown races).
func (pf *prefetcher) request(r segRun) {
	select {
	case pf.reqs <- r:
	case <-pf.done:
	}
}

// LeaseRun blocks until the outstanding request completes and leases its
// buffer set to the caller. The release func returns the set to the free
// list (idempotent); the caller must release on every path once no reader
// references the set's bytes anymore. The leaselease analyzer tracks these
// leases like page leases.
func (pf *prefetcher) LeaseRun() (runFetch, func() error, error) {
	select {
	case rf := <-pf.outs:
		prefetchInFlight.Add(1)
		segs := rf.segs
		var once sync.Once
		release := func() error {
			once.Do(func() {
				prefetchInFlight.Add(-1)
				select {
				case pf.free <- segs:
				default: // closed and drained: the set just dies with the prefetcher
				}
			})
			return nil
		}
		return rf, release, nil
	case <-pf.done:
		return runFetch{}, nil, errPrefetchClosed
	}
}

// close stops and joins the prefetch goroutine. Idempotent; safe to call
// from both Close and the abandoned-cursor cleanup.
func (pf *prefetcher) close() {
	pf.stop.Do(func() { close(pf.done) })
	pf.wg.Wait()
	select {
	case <-pf.outs: // fetched but never leased: just drop the set
	default:
	}
}

// runLoader drives one blockExec's I/O pipeline: it plans runs over the
// executor's block sequence, keeps the current run's bytes adopted in the
// executor's readers, and (with prefetch) keeps the next run's fetch in
// flight. Only a coalescing scan has one; a nil loader (every method is a
// no-op on it) leaves every block its own range read.
type runLoader struct {
	parts []*part
	pf    *prefetcher // nil: synchronous coalescing only

	runs    []segRun
	cur     int   // index into runs of the adopted run, -1 if none
	reqd    int   // index of the run requested from pf, -1 if none
	covered int   // leading blocks of runs[cur] served by adopted bytes
	tailErr error // pending error for block runs[cur].lo+covered, delivered once

	release func() error // lease on the adopted run's prefetched buffers
}

func newRunLoader(parts []*part, prefetch bool) *runLoader {
	rl := &runLoader{parts: parts, cur: -1, reqd: -1}
	if prefetch {
		rl.pf = newPrefetcher(parts)
	}
	return rl
}

// setSeq plans runs over a new block sequence (a morsel, or the serial
// executor's whole block list) and starts the first prefetch. Any previous
// sequence must be fully decoded: its lease is released here, and readers'
// stale adopted spans are only ever behind the scan position, so they are
// never consulted again.
func (rl *runLoader) setSeq(seq []blockRef) {
	if rl == nil {
		return
	}
	rl.releaseLease()
	rl.runs = buildRuns(rl.runs, seq, rl.parts)
	rl.cur, rl.reqd, rl.covered, rl.tailErr = -1, -1, 0, nil
	if rl.pf != nil && len(rl.runs) > 0 {
		rl.pf.request(rl.runs[0])
		rl.reqd = 0
	}
}

// releaseLease releases the adopted run's prefetch lease, if one is held.
func (rl *runLoader) releaseLease() {
	if rl.release != nil {
		_ = rl.release() // release only recycles buffers; it cannot fail
		rl.release = nil
	}
}

// close releases the current lease and stops the prefetcher.
func (rl *runLoader) close() {
	if rl == nil {
		return
	}
	rl.releaseLease()
	if rl.pf != nil {
		rl.pf.close()
	}
}

// ensure makes ref's bytes resident in readers before the block decodes:
// within the adopted run it is a bounds check; at a run boundary it adopts
// the prefetched bytes (or fetches synchronously) and pipelines the next
// run. Errors surface exactly on the block that needs the failed bytes, so
// quarantine treats them like per-block read errors — and its retry, which
// calls ensure again, re-reads only the failed tail of the run.
func (rl *runLoader) ensure(ref blockRef, readers []*segment.Reader) error {
	if rl == nil {
		return nil
	}
	if rl.cur >= 0 {
		r := rl.runs[rl.cur]
		if ref.part == r.part && ref.block >= r.lo && ref.block < r.hi {
			if ref.block-r.lo < rl.covered {
				return nil
			}
			if rl.tailErr != nil {
				err := rl.tailErr
				rl.tailErr = nil
				return err
			}
			return rl.fetchTail(r, ref.block, readers)
		}
	}
	ri := -1
	for i := rl.cur + 1; i < len(rl.runs); i++ {
		r := rl.runs[i]
		if r.part == ref.part && ref.block >= r.lo && ref.block < r.hi {
			ri = i
			break
		}
	}
	if ri < 0 {
		return nil // not in any planned run: plain per-block read
	}
	return rl.enter(ri, readers)
}

// enter makes runs[ri] the current run: lease the prefetched set when the
// pipeline is in step, fall back to a synchronous coalesced read otherwise,
// and request the next run so the prefetcher works while this one decodes.
func (rl *runLoader) enter(ri int, readers []*segment.Reader) error {
	r := rl.runs[ri]
	rl.cur, rl.covered, rl.tailErr = ri, 0, nil
	if rl.pf == nil || rl.reqd != ri {
		// No prefetcher, or entry out of step with the request pipeline
		// (defensive: forward-only scans stay in step).
		return rl.fetchTail(r, r.lo, readers)
	}
	rf, release, err := rl.pf.LeaseRun()
	if err != nil {
		rl.reqd = -1 // prefetcher closed: degrade to synchronous reads
		return rl.fetchTail(r, r.lo, readers)
	}
	if ri+1 < len(rl.runs) {
		rl.pf.request(rl.runs[ri+1])
		rl.reqd = ri + 1
	} else {
		rl.reqd = -1
	}
	if rf.run != r {
		_ = release() // out-of-step delivery (defensive): discard it
		return rl.fetchTail(r, r.lo, readers)
	}
	if rf.good <= 0 {
		// Nothing usable: drop stale spans so no reader points at recycled
		// bytes, give both sets back, and surface the error on this block.
		for _, rd := range readers {
			if rd != nil {
				rd.DropRun()
			}
		}
		rl.releaseLease()
		_ = release()
		if rf.err != nil {
			return rf.err
		}
		return rl.fetchTail(r, r.lo, readers)
	}
	for _, sb := range rf.segs {
		if sb.si < len(readers) && readers[sb.si] != nil {
			readers[sb.si].AdoptRun(r.lo, sb.good, sb.data)
		}
	}
	// Every reader now points at the new set; the previous one is free.
	rl.releaseLease()
	rl.release = release
	rl.covered = rf.good
	if rf.err != nil && rf.good < r.hi-r.lo {
		rl.tailErr = rf.err
	}
	return nil
}

// fetchTail synchronously (re)reads blocks [b, r.hi) of the current run into
// the readers' own buffers — the sub-range retry: blocks before b already
// decoded cleanly and are never re-read. A partial tail keeps its verified
// prefix and parks the error for the first uncovered block; a tail that
// yields nothing fails this block (quarantine's backoff retry lands back
// here with the same b).
func (rl *runLoader) fetchTail(r segRun, b int, readers []*segment.Reader) error {
	// Drop adopted spans first: if the loop below stops early, a reader left
	// holding a recycled prefetch buffer must fall back to per-block reads,
	// not serve stale bytes.
	for _, rd := range readers {
		if rd != nil {
			rd.DropRun()
		}
	}
	rl.releaseLease()
	good := r.hi - b
	var firstErr error
	for _, rd := range readers {
		if rd == nil {
			continue
		}
		g, err := rd.PreloadRun(b, r.hi)
		if g < good {
			good = g
		}
		if err != nil {
			firstErr = err
			break
		}
	}
	rl.covered = b - r.lo + good
	if firstErr != nil {
		if good == 0 {
			return firstErr
		}
		rl.tailErr = firstErr
	}
	return nil
}
