package table

import (
	"fmt"
	"runtime"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/cost"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// ScanOptions are the optional projection, range predicate and sort order
// of the scan method (paper §4.1).
type ScanOptions struct {
	// Fields projects the output (nil = all stored fields).
	Fields []string
	// Pred filters rows; grid layouts and zone maps prune blocks with it.
	Pred algebra.Predicate
	// Order requests a sort order. If it matches the stored order the scan
	// streams; otherwise the result is materialized and re-sorted (the
	// paper's §4.1: "RodentStore may have to re-sort the data").
	Order []algebra.OrderKey
	// NoZonePrune disables block zone-map pruning (grid cell pruning still
	// applies). Benchmarks use it to reproduce baselines that lack zone
	// maps, such as the paper's raw heap scans.
	NoZonePrune bool
	// Quarantine degrades gracefully on damaged data: blocks that cannot be
	// read (after transient errors are retried with capped backoff) are
	// skipped instead of aborting the scan, and the affected extents are
	// listed in Cursor.Report. Off by default — an unreadable block fails
	// the scan with a typed corruption error.
	Quarantine bool
	// Aggregate turns the scan into an aggregation (see AggSpec): the
	// cursor yields one row per group instead of the matching rows, and no
	// input row is ever materialized — blocks fold straight into typed
	// accumulators. Mutually exclusive with Fields and Order (groups are
	// always sorted by key). Every block folds into the scan's one state in
	// stored order, and each sum is one running sum per group over the
	// selected rows in stored order, so results are bit-identical run to run.
	Aggregate *AggSpec
}

// reorganizeIfNeeded applies a pending lazy reorganization under the
// exclusive table lock. Readers that find NeedsReorg set under their shared
// lock release it and call this instead of reorganizing in place: two
// shared holders reorganizing concurrently would each render and free the
// same old extents (a double free). The re-check under the exclusive lock
// makes the losers of that race no-ops.
func (e *Engine) reorganizeIfNeeded(name string) error {
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if !tab.NeedsReorg {
			return nil // another reader already reorganized
		}
		if err := e.relayout(tab); err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// Scan opens a cursor over the table (paper §4.1 scan). Lazy-reorganization
// marks are honored before the scan runs.
func (e *Engine) Scan(name string, opts ScanOptions) (*Cursor, error) {
	var cur *Cursor
	var needsReorg bool
	err := e.withLock(name, shared, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.NeedsReorg {
			needsReorg = true // reorganize needs the exclusive lock; retry below
			return nil
		}
		plan, err := e.planFor(tab, opts)
		if err != nil {
			return err
		}
		cur = newCursor(plan)
		switch {
		case plan.agg != nil:
			err = cur.runAggregate()
		case len(opts.Order) > 0 && !e.orderMatchesStored(tab, opts.Order):
			err = cur.materialize(opts.Order)
		}
		if err != nil {
			cur.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if needsReorg {
		if err := e.reorganizeIfNeeded(name); err != nil {
			return nil, err
		}
		return e.Scan(name, opts) // NeedsReorg is now clear; at most one retry
	}
	return cur, nil
}

// planFor plans the scan opts describes over every part of tab.
func (e *Engine) planFor(tab *catalog.Table, opts ScanOptions) (*scanPlan, error) {
	fields := opts.Fields
	if opts.Aggregate != nil {
		var err error
		if fields, err = aggScanFields(tab, opts); err != nil {
			return nil, err
		}
	}
	return e.planScan(tab, tab.Parts(), fields, opts.Pred, storedScanOpts{
		noZone: opts.NoZonePrune, quarantine: opts.Quarantine, agg: opts.Aggregate,
	})
}

// aggScanFields validates an aggregating scan's options and returns the
// stored columns it decodes.
func aggScanFields(tab *catalog.Table, opts ScanOptions) ([]string, error) {
	if len(opts.Fields) > 0 {
		return nil, fmt.Errorf("table: Aggregate and Fields are mutually exclusive (group keys and aggregates define the output)")
	}
	if len(opts.Order) > 0 {
		return nil, fmt.Errorf("table: Aggregate and Order are mutually exclusive (groups are sorted by key)")
	}
	if fields := opts.Aggregate.ScanFields(); len(fields) > 0 {
		return fields, nil
	}
	// A bare count(*) reads no input columns, but the scan still needs a
	// non-nil projection (nil means "all stored fields") and a part with a
	// readable segment for block metadata. Anchor on a predicate field if
	// there is one — it is decoded anyway — else the first stored column,
	// whose pages are only read if something actually decodes them.
	if pf := opts.Pred.Fields(); len(pf) > 0 {
		return pf[:1], nil
	}
	stored, err := storedSchema(tab)
	if err != nil {
		return nil, err
	}
	if stored.Arity() == 0 {
		return nil, nil
	}
	return stored.Names()[:1], nil
}

// orderMatchesStored reports whether the requested order is a prefix of a
// stored order and no unordered tail batches exist. Runs are each organized
// under the layout's sort, but two sorted runs concatenated are not globally
// sorted — so more than one organized part also re-sorts.
func (e *Engine) orderMatchesStored(tab *catalog.Table, order []algebra.OrderKey) bool {
	if len(tab.Tails) > 0 || len(tab.Parts()) > 1 {
		return false
	}
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		return false
	}
	for _, stored := range spec.StoredOrders() {
		if len(order) > len(stored) {
			continue
		}
		match := true
		for i, k := range order {
			if stored[i] != k {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// GetElement positions a cursor at the element at index (paper §4.1
// getElement): a single index addresses the row at that position in stored
// order; for gridded tables a multidimensional index addresses a grid cell
// (the cursor starts at the cell's first row). Subsequent Next calls
// continue in stored order, which is what the API's next() specifies.
func (e *Engine) GetElement(name string, fields []string, index []int64) (*Cursor, error) {
	var cur *Cursor
	var needsReorg bool
	err := e.withLock(name, shared, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.NeedsReorg {
			needsReorg = true // reorganize needs the exclusive lock; retry below
			return nil
		}
		plan, err := e.planScan(tab, tab.Parts(), fields, algebra.True, storedScanOpts{})
		if err != nil {
			return err
		}
		bi, off, err := plan.locate(tab, index)
		if err != nil {
			return err
		}
		cur = newCursor(plan)
		cur.cur = bi
		if err := cur.advance(); err != nil {
			return err
		}
		cur.batchPos = off
		return nil
	})
	if err != nil {
		return nil, err
	}
	if needsReorg {
		if err := e.reorganizeIfNeeded(name); err != nil {
			return nil, err
		}
		return e.GetElement(name, fields, index)
	}
	return cur, nil
}

// OrderList returns the sort orders the current organization serves
// efficiently (paper §4.1 order_list). Gridded layouts additionally report
// their cell curve as a pseudo-order string via GridOrder.
func (e *Engine) OrderList(name string) ([][]algebra.OrderKey, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return nil, err
	}
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		return nil, err
	}
	return spec.StoredOrders(), nil
}

// GridOrder describes the cell ordering of a gridded table ("" if
// ungridded), e.g. "zorder(lat,lon)".
func (e *Engine) GridOrder(name string) (string, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return "", err
	}
	if len(tab.GridBounds) == 0 {
		return "", nil
	}
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil || spec.Grid == nil {
		return "", err
	}
	fields := ""
	for i, d := range spec.Grid.Dims {
		if i > 0 {
			fields += ","
		}
		fields += d.Field
	}
	return string(spec.Grid.Curve) + "(" + fields + ")", nil
}

// RowCount returns the table's row count.
func (e *Engine) RowCount(name string) (int64, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return 0, err
	}
	return tab.RowCount, nil
}

// blockRef addresses one block within one part (main or tail batch).
type blockRef struct {
	part  int
	block int
}

// part is one renderable unit: the main segments, one run or one tail batch.
type part struct {
	entries []catalog.SegmentEntry
	readers []*segment.Reader // parallel to entries, only for needed segments (nil otherwise)
	// fieldSeg maps each decoded field to (segment index, column index).
	fieldSeg map[string][2]int
	// start is the stored position of the part's first row, counted from the
	// first part the plan opened.
	start int64
	// cache is the engine's chunk cache, nil when the plan bypasses it.
	cache *chunkCache
}

// batchPool recycles column batches across blocks and cursors.
// sync.Pool-backed, so it is safe for concurrent use and sheds memory under
// GC pressure.
var batchPool = vec.NewPool()

// The block pipeline. Every read path of the engine — streaming scans,
// aggregation, positional access, index lookups, fold read-back — is the
// same three stages over one block at a time, and the cost estimates price
// the blocks the first stage chose:
//
//	planScan          which blocks: parts, grid/zone pruning          (scanPlan)
//	decodeBlockVec    fetch → typed decode → compiled filter → projection (batches)
//	  or observeBlock fetch → typed decode → compiled filter → kernels    (aggregate state)
//	quarState.handle  retry transient errors, skip damaged blocks      (quarantine.go)
//
// Both decoders get a column through vecScratch.column: a hit in the
// engine's chunk cache is copied into the batch, or only its selected rows
// gathered; a miss fetches the owning segment's block on first use
// (segment.Reader.View: one range read, with a one-page lookbehind so
// blocks sharing a boundary page read it once), decodes it and caches a
// copy. There is no other way a scan gets bytes.
//
// blockExec.run is the one place the stages are chained. The cursor calls
// it inline, one block at a time in stored order on the caller's goroutine:
// the row and batch sinks take each block's batch from Cursor.nextResult,
// and an aggregating scan's blocks fold into its one state as they run.

// scanPlan is the immutable half of a scan: what to read and how to turn a
// block into output.
type scanPlan struct {
	out      *value.Schema // output schema of decoded batches (projection applied)
	decoded  *value.Schema // decoded schema (projection ∪ predicate fields)
	outIdx   []int         // positions of output fields within decoded
	identity bool          // outIdx is the identity over decoded
	filter   *algebra.CompiledPred
	parts    []*part
	blocks   []blockRef // surviving blocks in stored order
	// agg, when non-nil, folds blocks into aggregate state instead of
	// decoding output batches.
	agg *aggExec
	// quar, when non-nil, enables corruption quarantine: unreadable blocks
	// are recorded here and skipped instead of failing the scan.
	quar *quarState
	// vers is the engine's pin state, which a cursor over the plan pins.
	vers *versions
}

// blockExec is the mutable half of a scan: the scratch a cursor drives its
// plan's blocks through. Steady-state blocks allocate nothing beyond pooled
// batches.
type blockExec struct {
	plan *scanPlan
	vs   vecScratch
	as   aggScratch
	// agg is the state an aggregating scan's blocks fold into; runAggregate
	// sets it for the drain and drops it after.
	agg *aggState
}

func newBlockExec(plan *scanPlan) *blockExec {
	return &blockExec{plan: plan}
}

// run drives one block through the pipeline: fetch and decode/filter into
// a batch, or fold into x.agg (no batch), with the quarantine policy applied
// to whatever fails. A quarantined block comes back as neither a batch nor
// an error.
func (x *blockExec) run(ref blockRef) (*vec.Batch, error) {
	plan := x.plan
	p := plan.parts[ref.part]
	load := func() (*vec.Batch, error) {
		if plan.agg != nil {
			return nil, plan.agg.observeBlock(p, ref.block, plan.filter, &x.vs, &x.as, x.agg)
		}
		return decodeBlockVec(p, ref.block, plan, &x.vs)
	}
	b, err := load()
	if err != nil && plan.quar != nil {
		if plan.quar.handle(p, ref, err, func() error {
			b, err = load()
			return err
		}) {
			return nil, nil // recorded and skipped: no output, no error
		}
	}
	return b, err
}

// Cursor iterates rows of a scan (paper §4.1 next). Cursors are not safe
// for concurrent use; concurrent queries each open their own.
//
// A cursor is a sink over the block pipeline: blocks decode into typed
// column batches (internal/vec), filtered with a compiled predicate over a
// selection vector, with only the projected columns of surviving rows
// materialized. NextBatch hands those batches out directly; Next boxes the
// current batch's rows a chunk at a time and hands them out one by one.
// A scan issues its page reads block by block in stored order on the
// caller's goroutine — the paper-figure page/seek accounting rests on that.
type Cursor struct {
	schema    *value.Schema // output schema
	plan      *scanPlan     // nil for a cursor over materialized rows only
	exec      *blockExec
	cur       int        // next block of plan.blocks
	batch     *vec.Batch // current block's batch
	batchPos  int        // next row of batch to hand out
	exhausted bool
	// rows[rowPos:] are boxed rows of batch from batchPos on: Next boxes
	// rowChunk rows at a time, out of shared slabs (Batch.AppendRows), and
	// span is the position scratch it and NextBatch gather with.
	rows   []value.Row
	rowPos int
	span   []int32
	// sorted, when non-nil, replaces streaming (materialized order-by, index
	// scans, and the result rows of an aggregation).
	sorted    []value.Row
	sortedPos int
	// pin holds the version the plan was made from until the block stream
	// ends or the cursor closes (nil after); unpinGC releases it for a
	// cursor collected without Close (version.go).
	pin     *versionPin
	unpinGC runtime.Cleanup
}

// newCursor starts a plan at its first block and pins the version the plan
// was made from. Callers make the plan and the cursor under one table lock,
// so no flip of the table lands between the two; a fold's read-back, made
// off the lock, reads parts its fold has pinned already.
func newCursor(plan *scanPlan) *Cursor {
	c := &Cursor{schema: plan.out, plan: plan, exec: newBlockExec(plan)}
	c.pinCursor(plan.vers)
	return c
}

// Report returns what a quarantined scan has skipped so far. Complete only
// after the cursor is exhausted; always empty without ScanOptions.Quarantine.
func (c *Cursor) Report() ScanReport {
	if c.plan == nil {
		return ScanReport{}
	}
	return c.plan.quar.report()
}

// Schema returns the cursor's output schema.
func (c *Cursor) Schema() *value.Schema { return c.schema }

// Close releases cursor resources, the version pin among them.
func (c *Cursor) Close() {
	c.unpin()
	c.exhausted = true
	c.sorted = nil
	batchPool.Put(c.batch)
	c.batch = nil
	c.rows, c.rowPos = nil, 0
}

// rowChunk is how many rows Next boxes at a time.
const rowChunk = 64

// positions returns the batch positions [lo, hi) as a selection, in the
// cursor's scratch.
func (c *Cursor) positions(lo, hi int) []int32 {
	c.span = c.span[:0]
	for i := lo; i < hi; i++ {
		c.span = append(c.span, int32(i))
	}
	return c.span
}

// Next returns the next row, reporting ok=false at the end (paper §4.1).
func (c *Cursor) Next() (value.Row, bool, error) {
	if c.sorted != nil {
		if c.sortedPos >= len(c.sorted) {
			return nil, false, nil
		}
		r := c.sorted[c.sortedPos]
		c.sortedPos++
		return r, true, nil
	}
	for {
		if c.batch != nil && c.batchPos < c.batch.Len() {
			if c.rowPos == len(c.rows) {
				hi := min(c.batchPos+rowChunk, c.batch.Len())
				c.rows, c.rowPos = c.batch.AppendRows(c.rows[:0], c.positions(c.batchPos, hi)), 0
			}
			r := c.rows[c.rowPos]
			c.rowPos++
			c.batchPos++
			return r, true, nil
		}
		if c.exhausted {
			return nil, false, nil
		}
		if err := c.advance(); err != nil {
			return nil, false, err
		}
	}
}

// NextBatch returns the next non-empty batch of rows as typed column
// vectors, reporting ok=false at the end. It is the vectorized counterpart
// of Next: iterating batches skips the per-row boxing entirely. The
// returned batch (and any slices taken from it) is valid only until the
// next Next/NextBatch/Close call — copy out what must survive. Mixing Next
// and NextBatch is allowed; NextBatch first drains whatever Next has not
// consumed of the current block.
func (c *Cursor) NextBatch() (*vec.Batch, bool, error) {
	if c.sorted != nil {
		if c.sortedPos >= len(c.sorted) {
			return nil, false, nil
		}
		b, err := vec.FromRows(c.schema, c.sorted[c.sortedPos:])
		c.sortedPos = len(c.sorted)
		if err != nil {
			return nil, false, err
		}
		return b, true, nil
	}
	for {
		if c.batch != nil && c.batchPos < c.batch.Len() {
			if c.batchPos == 0 {
				b := c.batch
				c.batchPos = b.Len()
				return b, true, nil
			}
			// Next consumed a prefix: gather the rest by column into a
			// pooled batch, which becomes the current one.
			rest := c.positions(c.batchPos, c.batch.Len())
			b := batchPool.Get(c.batch.Schema())
			for i := range b.Cols {
				b.Cols[i].AppendSel(&c.batch.Cols[i], rest)
			}
			if err := b.SetLen(len(rest)); err != nil {
				batchPool.Put(b)
				return nil, false, err
			}
			batchPool.Put(c.batch)
			c.batch, c.batchPos = b, b.Len()
			c.rows, c.rowPos = c.rows[:0], 0
			return b, true, nil
		}
		if c.exhausted {
			return nil, false, nil
		}
		if err := c.advance(); err != nil {
			return nil, false, err
		}
	}
}

// nextResult runs the next block in stored order on the caller's
// goroutine and returns its batch (nil for a skipped or folded block).
// ok=false ends the stream and releases the version pin; an error ends it
// too.
func (c *Cursor) nextResult() (b *vec.Batch, ok bool, err error) {
	if c.cur >= len(c.plan.blocks) {
		c.unpin()
		return nil, false, nil
	}
	b, err = c.exec.run(c.plan.blocks[c.cur])
	c.cur++
	return b, true, err
}

// advance makes the next block's batch current, marking the cursor
// exhausted at the end of the stream or on an error. A quarantined block
// leaves the (drained) current batch in place; the callers' loops advance
// again.
func (c *Cursor) advance() error {
	b, ok, err := c.nextResult()
	if !ok || err != nil {
		c.unpin()
		c.exhausted = true
		return err
	}
	if b != nil {
		batchPool.Put(c.batch)
		c.batch, c.batchPos = b, 0
		c.rows, c.rowPos = c.rows[:0], 0
	}
	return nil
}

// blockRowCount returns the metadata row count of one block of a part —
// the authoritative count every decoded column must match.
func blockRowCount(p *part, block int) int {
	return p.entries[firstReadSeg(p)].Meta.Blocks[block].Rows
}

// vecScratch is a cursor's reusable decode state: the selection buffer,
// the per-segment views of the current block, the decoded-column marks and
// the cache generation the block started at.
type vecScratch struct {
	sel   []int32
	views []*segment.BlockView
	done  []bool
	gen   uint64
}

// startBlock readies vs for a block of p whose decoded schema has ncols
// columns: no segment fetched, no column decoded. The cache generation is
// read before any fetch, so a block an invalidation overtakes is not cached.
func (vs *vecScratch) startBlock(p *part, ncols int) {
	if cap(vs.views) < len(p.entries) {
		vs.views = make([]*segment.BlockView, len(p.entries))
	}
	vs.views = vs.views[:len(p.entries)]
	clear(vs.views)
	if cap(vs.done) < ncols {
		vs.done = make([]bool, ncols)
	}
	vs.done = vs.done[:ncols]
	clear(vs.done)
	if p.cache != nil {
		vs.gen = p.cache.generation()
	}
}

// column is the one fetch-and-decode step of both block decoders: it
// returns field's column of block, nrows rows. A cache hit returns the
// cached chunk itself, which callers read (copy or gather) and never keep
// or change. A miss fetches the owning segment's block on first use (a
// block whose columns all hit is never read), decodes the column into
// scratch and returns scratch, caching a copy once the page checksums and
// DecodeCol's row-count check have passed.
func (vs *vecScratch) column(p *part, block, nrows int, field string, scratch *vec.Vector) (*vec.Vector, error) {
	loc := p.fieldSeg[field]
	si, ci := loc[0], loc[1]
	key := chunkKey{ext: p.entries[si].Meta.ExtentStart, block: block, col: ci}
	if p.cache != nil {
		if v := p.cache.get(key); v != nil {
			if v.Len() != nrows {
				return nil, fmt.Errorf("table: block %d: segment %d holds %d rows, block metadata says %d",
					block, si, v.Len(), nrows)
			}
			return v, nil
		}
	}
	bv := vs.views[si]
	if bv == nil {
		var err error
		if bv, err = p.readers[si].View(block); err != nil {
			return nil, err
		}
		if bv.Rows() != nrows {
			return nil, fmt.Errorf("table: block %d: segment %d holds %d rows, block metadata says %d",
				block, si, bv.Rows(), nrows)
		}
		vs.views[si] = bv
	}
	if err := bv.DecodeCol(ci, scratch); err != nil {
		return nil, err
	}
	if p.cache != nil {
		p.cache.put(key, vs.gen, scratch)
	}
	return scratch, nil
}

// decodeCol fills dst with field's column of block (column), copying a
// cached chunk in.
func (vs *vecScratch) decodeCol(p *part, block, nrows int, field string, dst *vec.Vector) error {
	v, err := vs.column(p, block, nrows, field, dst)
	if err == nil && v != dst {
		dst.CopyFrom(v)
	}
	return err
}

// decodeBlockVec is the batch-producing block decoder: typed column decode
// with no per-cell boxing, selection-vector filtering, and late
// materialization — predicate columns decode first, and when no row
// survives the remaining columns are never decoded (nor their segments
// fetched) at all. When every row survives, projected columns decode
// straight into the output batch (and already-decoded predicate columns are
// swapped in), so the full-selection path gathers nothing; a partial
// selection gathers its rows straight out of cached chunks. The row count
// comes from block metadata; a segment whose block holds any other count is
// an error, never a silent truncation. The returned batch comes from
// batchPool.
func decodeBlockVec(p *part, block int, plan *scanPlan, vs *vecScratch) (*vec.Batch, error) {
	decoded, filter, outIdx := plan.decoded, plan.filter, plan.outIdx
	nrows := blockRowCount(p, block)
	vs.startBlock(p, decoded.Arity())
	decodeInto := func(di int, dst *vec.Vector) error {
		return vs.decodeCol(p, block, nrows, decoded.Fields[di].Name, dst)
	}
	dec := batchPool.Get(decoded)
	done := vs.done
	// Phase 1: predicate columns only, then filter.
	for _, di := range filter.Columns() {
		if err := decodeInto(di, &dec.Cols[di]); err != nil {
			batchPool.Put(dec)
			return nil, err
		}
		done[di] = true
	}
	// An empty predicate selects everything; only a real filter needs the
	// identity selection materialized (the full-selection paths below never
	// index sel).
	nsel := nrows
	if !filter.Empty() {
		vs.sel = vec.FillSel(vs.sel, nrows)
		vs.sel = filter.Filter(dec, vs.sel)
		nsel = len(vs.sel)
	}
	sel := vs.sel
	if nsel == 0 {
		batchPool.Put(dec)
		return batchPool.Get(plan.out), nil // empty batch: projected columns never decoded
	}
	full := nsel == nrows
	if plan.identity && full {
		// Full selection, identity projection: decode the rest in place —
		// the decoded batch is the output batch.
		for _, di := range outIdx {
			if done[di] {
				continue
			}
			if err := decodeInto(di, &dec.Cols[di]); err != nil {
				batchPool.Put(dec)
				return nil, err
			}
		}
		if err := dec.SetLen(nrows); err != nil {
			batchPool.Put(dec)
			return nil, err
		}
		return dec, nil
	}
	// Phase 2: projected columns. Full selection decodes (or swaps) into
	// the output batch directly; a partial selection decodes into the
	// scratch batch and gathers only the selected rows.
	out := batchPool.Get(plan.out)
	fail := func(err error) (*vec.Batch, error) {
		batchPool.Put(dec)
		batchPool.Put(out)
		return nil, err
	}
	for oi, di := range outIdx {
		switch {
		case full && done[di]:
			// Already decoded for the filter; outIdx positions are distinct,
			// so stealing the vector is safe.
			out.Cols[oi], dec.Cols[di] = dec.Cols[di], out.Cols[oi]
		case full:
			if err := decodeInto(di, &out.Cols[oi]); err != nil {
				return fail(err)
			}
		default:
			// Gather the selected rows straight out of a cached chunk; only
			// a miss decodes the whole column (into the scratch batch).
			src := &dec.Cols[di]
			if !done[di] {
				var err error
				if src, err = vs.column(p, block, nrows, decoded.Fields[di].Name, src); err != nil {
					return fail(err)
				}
			}
			out.Cols[oi].AppendSel(src, sel)
		}
	}
	batchPool.Put(dec)
	if err := out.SetLen(nsel); err != nil {
		batchPool.Put(out)
		return nil, err
	}
	return out, nil
}

// span returns the stored positions [lo, hi) a block covers, counted from
// the first part the plan opened.
func (plan *scanPlan) span(ref blockRef) (lo, hi int64) {
	p := plan.parts[ref.part]
	bm := p.entries[firstReadSeg(p)].Meta.Blocks[ref.block]
	return p.start + bm.RowStart, p.start + bm.RowStart + int64(bm.Rows)
}

// locate finds where a positional cursor starts (paper §4.1 getElement):
// the plan block holding stored position index[0] and the row's offset in
// it, or, for a multidimensional index on a gridded table, the first block
// of the addressed cell. GetElement seeks there; EstimateGet prices it.
func (plan *scanPlan) locate(tab *catalog.Table, index []int64) (bi, off int, err error) {
	switch {
	case len(index) == 1:
		for bi, ref := range plan.blocks {
			if lo, hi := plan.span(ref); index[0] >= lo && index[0] < hi {
				return bi, int(index[0] - lo), nil
			}
		}
		return 0, 0, fmt.Errorf("table: position %d out of range [0,%d)", index[0], tab.RowCount)
	case len(index) == len(tab.GridBounds) && len(tab.GridBounds) > 1:
		var cell uint64
		for d, b := range tab.GridBounds {
			if index[d] < 0 || index[d] >= int64(b.Cells) {
				return 0, 0, fmt.Errorf("table: cell index %d out of range [0,%d) in dimension %q", index[d], b.Cells, b.Field)
			}
			cell = cell*uint64(b.Cells) + uint64(index[d])
		}
		for bi, ref := range plan.blocks {
			p := plan.parts[ref.part]
			if p.entries[firstReadSeg(p)].Meta.Blocks[ref.block].Cell == cell {
				return bi, 0, nil
			}
		}
		return 0, 0, fmt.Errorf("table: grid cell %d holds no data", cell)
	default:
		return 0, 0, fmt.Errorf("table: index arity %d (table has %d grid dimensions)", len(index), len(tab.GridBounds))
	}
}

func firstReadSeg(p *part) int {
	for si, r := range p.readers {
		if r != nil {
			return si
		}
	}
	return 0
}

// materialize drains the cursor into c.sorted, which Next and NextBatch
// serve from then on, stably sorted by order (none keeps stored order).
func (c *Cursor) materialize(order []algebra.OrderKey) error {
	cols := make([]int, len(order))
	desc := make([]bool, len(order))
	for i, k := range order {
		ci := c.schema.Index(k.Field)
		if ci < 0 {
			return fmt.Errorf("table: order field %q not in scan output", k.Field)
		}
		cols[i], desc[i] = ci, k.Desc
	}
	var rows []value.Row
	for {
		r, ok, err := c.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	value.SortRows(rows, cols, desc)
	c.sorted, c.sortedPos = rows, 0
	return nil
}

// boundsOf reconstructs grid bounds from catalog metadata.
func boundsOf(tab *catalog.Table) []transforms.GridBounds {
	out := make([]transforms.GridBounds, len(tab.GridBounds))
	for i, b := range tab.GridBounds {
		out[i] = transforms.GridBounds{Field: b.Field, Min: b.Min, Max: b.Max, Cells: b.Cells}
	}
	return out
}

// storedScanOpts are the internal knobs of planScan: noZone disables
// zone-map pruning only, uncached reads past the chunk cache (a fold's
// read-back), agg compiles an aggregation into the plan.
type storedScanOpts struct {
	noZone, quarantine, uncached bool
	agg                          *AggSpec
}

// planScan is the planner stage and the only code that selects blocks: it
// resolves the projection and predicate against the stored schema, opens the
// given parts of tab (all of them for a scan; a fold's read-back chooses),
// prunes blocks, and compiles the filter (and aggregation, if any). Index
// lookups narrow the blocks it chose; the cost estimates price them.
func (e *Engine) planScan(tab *catalog.Table, from []catalog.Part, fields []string, pred algebra.Predicate, so storedScanOpts) (*scanPlan, error) {
	stored, err := storedSchema(tab)
	if err != nil {
		return nil, err
	}
	if fields == nil {
		fields = stored.Names()
	}
	outSchema, _, err := stored.Project(fields)
	if err != nil {
		return nil, fmt.Errorf("table: %w (this representation does not store the field; alter the layout to include it)", err)
	}
	if err := pred.Validate(stored); err != nil {
		return nil, err
	}
	// Decoded fields: projection ∪ predicate fields (dedup, stored order).
	needed := make(map[string]bool)
	for _, f := range fields {
		needed[f] = true
	}
	for _, f := range pred.Fields() {
		needed[f] = true
	}
	var decodedNames []string
	for _, f := range stored.Names() {
		if needed[f] {
			decodedNames = append(decodedNames, f)
		}
	}
	decoded, _, err := stored.Project(decodedNames)
	if err != nil {
		return nil, err
	}
	outIdx := make([]int, len(fields))
	for i, f := range fields {
		outIdx[i] = decoded.Index(f)
	}

	// Concatenating a table's parts in catalog order preserves global insert
	// order across the hierarchy.
	parts := make([]*part, 0, len(from))
	var start int64
	cache := e.cache
	if so.uncached {
		cache = nil
	}
	for _, cp := range from {
		p, err := e.buildPart(cp.Segments, stored, decoded, cache)
		if err != nil {
			return nil, err
		}
		p.start = start
		start += p.entries[firstReadSeg(p)].Meta.Rows
		parts = append(parts, p)
	}

	// Candidate blocks with grid/zone pruning.
	prune := newPruner(tab, pred, so.noZone)
	var blocks []blockRef
	for pi, p := range parts {
		blocks = prune.appendBlocks(blocks, pi, p)
	}

	identity := len(outIdx) == decoded.Arity()
	for i, di := range outIdx {
		if di != i {
			identity = false
			break
		}
	}
	filter, err := algebra.CompilePred(pred, decoded)
	if err != nil {
		return nil, err
	}
	plan := &scanPlan{
		out:      outSchema,
		decoded:  decoded,
		outIdx:   outIdx,
		identity: identity,
		filter:   filter,
		parts:    parts,
		blocks:   blocks,
		vers:     e.vers,
	}
	if so.agg != nil {
		if plan.agg, err = buildAggExec(so.agg, decoded); err != nil {
			return nil, err
		}
	}
	if so.quarantine {
		plan.quar = newQuarState()
	}
	return plan, nil
}

// buildPart opens readers for the segments of one part that hold decoded
// fields, decoding through cache (nil: none).
func (e *Engine) buildPart(entries []catalog.SegmentEntry, stored, decoded *value.Schema, cache *chunkCache) (*part, error) {
	p := &part{entries: entries, readers: make([]*segment.Reader, len(entries)), fieldSeg: make(map[string][2]int), cache: cache}
	for si, entry := range entries {
		needsRead := false
		for ci, f := range entry.Fields {
			if decoded.Index(f) >= 0 {
				p.fieldSeg[f] = [2]int{si, ci}
				needsRead = true
			}
		}
		if !needsRead {
			continue
		}
		var segFields []value.Field
		for _, f := range entry.Fields {
			i := stored.Index(f)
			if i < 0 {
				return nil, fmt.Errorf("table: segment field %q missing from stored schema", f)
			}
			segFields = append(segFields, stored.Fields[i])
		}
		r, err := segment.NewReader(e.file, entry.Meta, segment.Spec{Fields: segFields, Codecs: entry.Codecs})
		if err != nil {
			return nil, err
		}
		p.readers[si] = r
	}
	if firstReadSeg(p) >= len(p.readers) || p.readers[firstReadSeg(p)] == nil {
		return nil, fmt.Errorf("table: no readable segment in part")
	}
	return p, nil
}

// pruner is planScan's block selection, resolved once per plan: a block is
// skipped when its grid cell or the zone map of any of its decoded segments
// excludes the predicate. The segments of a part share block boundaries and
// cells (render cuts each from the same cell runs), but each carries zone
// maps for its own fields only.
type pruner struct {
	dims  []cellRange // per grid dimension, first dimension first
	zones []zoneBound
}

// cellRange is the cells [lo, hi] of one grid dimension of cells cells that
// the predicate admits; an inactive one admits every cell.
type cellRange struct {
	cells  uint64
	lo, hi int
	active bool
}

// zoneBound is the predicate's range on one field, as zone-map floats.
type zoneBound struct {
	field        string
	lo, hi       float64
	hasLo, hasHi bool
}

func newPruner(tab *catalog.Table, pred algebra.Predicate, noZone bool) pruner {
	if pred.IsTrue() {
		return pruner{}
	}
	pr := pruner{dims: make([]cellRange, len(tab.GridBounds))}
	for d, b := range boundsOf(tab) {
		r := cellRange{cells: uint64(b.Cells), hi: b.Cells - 1}
		if lo, hi, _, _, found := pred.Bounds(b.Field); found {
			r.active = true
			if !lo.IsNull() {
				r.lo = b.CellOf(lo.Float())
			}
			if !hi.IsNull() {
				r.hi = b.CellOf(hi.Float())
			}
		}
		pr.dims[d] = r
	}
	if noZone {
		return pr
	}
	for _, f := range pred.Fields() {
		lo, hi, _, _, found := pred.Bounds(f)
		if !found {
			continue
		}
		// Only numeric fields carry zone maps, and only a numeric bound has
		// a Float.
		zb := zoneBound{field: f}
		if zb.hasLo = numeric(lo); zb.hasLo {
			zb.lo = lo.Float()
		}
		if zb.hasHi = numeric(hi); zb.hasHi {
			zb.hi = hi.Float()
		}
		if zb.hasLo || zb.hasHi {
			pr.zones = append(pr.zones, zb)
		}
	}
	return pr
}

func numeric(v value.Value) bool { return v.Kind() == value.Int || v.Kind() == value.Float }

// appendBlocks appends to dst the blocks of part p, the plan's part pi, that
// the predicate admits, in stored order. A gridded part is tested one cell
// run at a time, and only the blocks of admitted runs see the zone test; an
// ungridded one (a tail) is one pass over its blocks.
func (pr *pruner) appendBlocks(dst []blockRef, pi int, p *part) []blockRef {
	meta := &p.entries[firstReadSeg(p)].Meta
	if meta.CellRuns == nil {
		return pr.appendZoned(dst, pi, p, 0, len(meta.Blocks))
	}
	for _, r := range meta.CellRuns {
		if pr.admitsCell(r.Cell) {
			dst = pr.appendZoned(dst, pi, p, r.Start, r.End)
		}
	}
	return dst
}

// admitsCell decodes a row-major cell index one dimension at a time, last
// dimension first, and stops at the first that falls outside its range.
func (pr *pruner) admitsCell(cell uint64) bool {
	if cell == segment.NoCell {
		return true
	}
	for d := len(pr.dims) - 1; d >= 0; d-- {
		r := &pr.dims[d]
		c := int(cell % r.cells)
		cell /= r.cells
		if r.active && (c < r.lo || c > r.hi) {
			return false
		}
	}
	return true
}

// appendZoned appends blocks [lo, hi) of part p that no decoded segment's
// zone maps exclude.
func (pr *pruner) appendZoned(dst []blockRef, pi int, p *part, lo, hi int) []blockRef {
	for bi := lo; bi < hi; bi++ {
		if len(pr.zones) == 0 || !pr.zonesExclude(p, bi) {
			dst = append(dst, blockRef{part: pi, block: bi})
		}
	}
	return dst
}

func (pr *pruner) zonesExclude(p *part, bi int) bool {
	for si, r := range p.readers {
		if r == nil {
			continue
		}
		zones := p.entries[si].Meta.Blocks[bi].Zones
		for i := range pr.zones {
			zb := &pr.zones[i]
			for j := range zones {
				z := &zones[j]
				if z.Field != zb.field {
					continue
				}
				if zb.hasLo && z.Max < zb.lo || zb.hasHi && z.Min > zb.hi {
					return true
				}
			}
		}
	}
	return false
}

// EstimateScan predicts the I/O footprint of a scan without reading pages
// (the arithmetic behind scan_cost, paper §4.1/§5: bytes of I/O + seeks):
// the pages and seeks of the blocks the scan's own plan chose.
func (e *Engine) EstimateScan(name string, opts ScanOptions) (cost.Estimate, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return cost.Estimate{}, err
	}
	plan, err := e.planFor(tab, opts)
	if err != nil {
		return cost.Estimate{}, err
	}
	return plan.estimate(plan.blocks, uint64(e.file.PayloadSize())), nil
}

// EstimateGet predicts the I/O footprint of a getElement call: the block the
// positional cursor reads first, found the way GetElement finds it.
func (e *Engine) EstimateGet(name string, fields []string, index []int64) (cost.Estimate, error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return cost.Estimate{}, err
	}
	plan, err := e.planScan(tab, tab.Parts(), fields, algebra.True, storedScanOpts{})
	if err != nil {
		return cost.Estimate{}, err
	}
	bi, _, err := plan.locate(tab, index)
	if err != nil {
		return cost.Estimate{}, err
	}
	return plan.estimate(plan.blocks[bi:bi+1], uint64(e.file.PayloadSize())), nil
}

// estimate counts what a serial cold run of blocks (in plan order) reads:
// per decoded segment, the pages the blocks span — a page two blocks share
// is read once — and one seek per run of consecutive pages; and the rows
// decoded, once per block.
func (plan *scanPlan) estimate(blocks []blockRef, payload uint64) cost.Estimate {
	var est cost.Estimate
	for len(blocks) > 0 {
		n := 1
		for n < len(blocks) && blocks[n].part == blocks[0].part {
			n++
		}
		p := plan.parts[blocks[0].part]
		for si, r := range p.readers {
			if r == nil {
				continue
			}
			var lo, hi uint64
			for i, ref := range blocks[:n] {
				bm := p.entries[si].Meta.Blocks[ref.block]
				first, last := bm.Off/payload, (bm.Off+uint64(bm.Len)-1)/payload
				if i > 0 && first <= hi+1 {
					hi = max(hi, last)
					continue
				}
				if i > 0 {
					est.Pages += hi - lo + 1
				}
				lo, hi = first, last
				est.Seeks++
			}
			est.Pages += hi - lo + 1
		}
		for _, ref := range blocks[:n] {
			est.Rows += int64(blockRowCount(p, ref.block))
		}
		blocks = blocks[n:]
	}
	return est
}
