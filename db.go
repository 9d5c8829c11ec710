package rodentstore

import (
	"fmt"
	"strings"

	"rodentstore/internal/algebra"
	"rodentstore/internal/cost"
	"rodentstore/internal/table"
	"rodentstore/internal/value"
)

// CreateTable registers a table with a logical schema and a storage-algebra
// layout expression (validated immediately; rendered on Load).
func (db *DB) CreateTable(name string, fields []Field, layout string) error {
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return err
	}
	return db.eng.Create(name, schema, layout)
}

// DropTable removes a table and frees its storage.
func (db *DB) DropTable(name string) error { return db.eng.Drop(name) }

// Tables lists table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// SchemaOf returns the logical schema of a table.
func (db *DB) SchemaOf(name string) ([]Field, error) {
	tab, err := db.cat.Get(name)
	if err != nil {
		return nil, err
	}
	s, err := tab.Schema()
	if err != nil {
		return nil, err
	}
	return s.Fields, nil
}

// LayoutOf returns the table's current layout expression.
func (db *DB) LayoutOf(name string) (string, error) {
	tab, err := db.cat.Get(name)
	if err != nil {
		return "", err
	}
	return tab.LayoutExpr, nil
}

// RowCount returns the number of logical rows stored.
func (db *DB) RowCount(name string) (int64, error) { return db.eng.RowCount(name) }

// Load bulk-loads rows into an empty table, rendering its layout.
func (db *DB) Load(name string, rows []Row) error { return db.eng.Load(name, rows) }

// Insert appends rows as an unorganized tail batch (paper §5's "reorganize
// only new data"); Reorganize merges tails into the main layout.
func (db *DB) Insert(name string, rows []Row) error { return db.eng.Insert(name, rows) }

// Reorganize re-renders the table under its current (or pending) layout.
func (db *DB) Reorganize(name string) error { return db.eng.Reorganize(name) }

// Compact folds accumulated tail batches into the table's run hierarchy and
// cascades level merges per the layout's compaction policy (sizetiered[k]
// or leveled[k] in the layout expression). Each merge folds one level into
// the next — O(level) work — instead of rewriting the whole table. For
// layouts without a compaction policy, Compact behaves like Reorganize.
// The background merge worker (Options.AutoMergeTails) calls this
// automatically when a policy table accumulates fanout tail batches.
//
// Under a compaction policy Compact does not wait for its result to be
// durable: the new runs become durable, and the space of what they replaced
// free, at the next checkpoint — the size trigger (which counts that space,
// and which Compact checks on its way out), Checkpoint or Close. A crash
// before it recovers the table as it was stored before: the same rows. A
// pending lazy layout change is applied as Reorganize applies it, durably.
func (db *DB) Compact(name string) error { return db.eng.Compact(name) }

// CompactStats reports fold work done since open: merge count, rows and
// payload bytes written into rendered runs (per-merge write amplification).
type CompactStats = table.CompactStats

// CompactionStats returns a snapshot of the engine's fold counters.
func (db *DB) CompactionStats() CompactStats { return db.eng.CompactStats() }

// AlterLayout switches the table to a new layout expression. With
// eager=true the data is rewritten now, otherwise on the next access (paper
// §5's reorganization strategies). Either way the rewrite renders with no
// table lock held, so inserts and scans go on beside it; rows inserted
// meanwhile are re-encoded under the new layout when it lands, and the
// change is durable once it has. It waits for a fold already running on the
// table, and an eager alter whose table is dropped meanwhile fails with the
// error of a missing table, never success.
func (db *DB) AlterLayout(name, layout string, eager bool) error {
	mode := table.ReorgLazy
	if eager {
		mode = table.ReorgEager
	}
	return db.eng.AlterLayout(name, layout, mode)
}

// Query describes a scan: optional projection, filter and order
// (the paper's scan(table, [fieldlist, predicate, order])).
type Query struct {
	// Fields projects the output; nil selects every stored field.
	Fields []string
	// Where is a conjunctive range predicate, e.g.
	// `lat >= 42.3 and lat < 42.4 and id = "car-7"`.
	Where string
	// OrderBy requests a sort order, e.g. "t" or "lat desc, lon".
	// Orders matching the stored order stream; others re-sort.
	OrderBy string
	// Quarantine degrades gracefully on damaged data: extents that cannot
	// be read (transient errors are retried first) are skipped instead of
	// failing the scan, and Cursor.Report lists what was skipped. Off by
	// default — an unreadable extent fails the scan with a typed corruption
	// error.
	Quarantine bool
	// Aggregate turns the scan into an aggregation: the cursor yields one
	// row per group (one row total without GroupBy) instead of matching
	// rows, computed with the vectorized kernels — no input row is ever
	// materialized. Mutually exclusive with Fields and OrderBy (groups come
	// sorted by key). Each sum is one running sum per group over the
	// selected rows in stored order, so results are bit-identical run to
	// run, floats included.
	Aggregate *AggregateSpec
}

// AggregateSpec describes a pushed-down aggregation.
type AggregateSpec struct {
	// GroupBy lists stored columns to group on (empty = one global group).
	GroupBy []string
	// Aggs are the aggregate outputs: "count" or "count(*)", and
	// sum/min/max/avg over an arithmetic expression of numeric columns,
	// e.g. "sum(qty * price)", "avg(lat)", "min(a - b) as closest".
	// count(expr) counts non-null expression values; sum/min/max/avg skip
	// nulls and return null when no non-null input exists.
	Aggs []string
}

func (q Query) toOptions() (table.ScanOptions, error) {
	var opts table.ScanOptions
	opts.Fields = q.Fields
	opts.Quarantine = q.Quarantine
	if strings.TrimSpace(q.Where) != "" {
		pred, err := algebra.ParsePredicate(q.Where)
		if err != nil {
			return opts, err
		}
		opts.Pred = pred
	}
	if strings.TrimSpace(q.OrderBy) != "" {
		keys, err := algebra.ParseOrderBy(q.OrderBy)
		if err != nil {
			return opts, err
		}
		opts.Order = keys
	}
	if q.Aggregate != nil {
		spec := &table.AggSpec{GroupBy: q.Aggregate.GroupBy}
		for _, s := range q.Aggregate.Aggs {
			item, err := table.ParseAggItem(s)
			if err != nil {
				return opts, err
			}
			spec.Items = append(spec.Items, item)
		}
		opts.Aggregate = spec
	}
	return opts, nil
}

// Cursor iterates scan results (the paper's next()).
type Cursor struct {
	inner *table.Cursor
}

// Next returns the next row; ok=false at the end.
func (c *Cursor) Next() (Row, bool, error) { return c.inner.Next() }

// NextBatch returns the next batch of rows as typed column vectors;
// ok=false at the end. Batch iteration skips the per-row boxing Next pays,
// which is the fast way to drain large scans. The returned batch is valid
// only until the next Next/NextBatch/Close call on this cursor — copy out
// anything that must survive. Mixing Next and NextBatch is allowed;
// NextBatch first returns whatever Next has not consumed of the current
// block.
func (c *Cursor) NextBatch() (*Batch, bool, error) { return c.inner.NextBatch() }

// Schema returns the cursor's output schema.
func (c *Cursor) Schema() []Field { return c.inner.Schema().Fields }

// ScanReport describes what a quarantined scan skipped; empty when the scan
// saw everything.
type ScanReport = table.ScanReport

// SkippedExtent is one quarantined extent in a ScanReport.
type SkippedExtent = table.SkippedExtent

// Report returns what a Quarantine scan has skipped so far — complete once
// the cursor is exhausted. Always empty without Query.Quarantine.
func (c *Cursor) Report() ScanReport { return c.inner.Report() }

// Close releases the cursor.
func (c *Cursor) Close() { c.inner.Close() }

// All drains the cursor into a slice.
func (c *Cursor) All() ([]Row, error) {
	var out []Row
	for {
		r, ok, err := c.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// Scan opens a cursor over the table (paper §4.1 scan).
func (db *DB) Scan(name string, q Query) (*Cursor, error) {
	opts, err := q.toOptions()
	if err != nil {
		return nil, err
	}
	cur, err := db.eng.Scan(name, opts)
	if err != nil {
		return nil, err
	}
	return &Cursor{inner: cur}, nil
}

// GetElement positions a cursor at the element at index (paper §4.1):
// one index = position in stored order; for a gridded table, one index per
// grid dimension addresses a cell. Next continues in stored order.
func (db *DB) GetElement(name string, fields []string, index ...int64) (*Cursor, error) {
	cur, err := db.eng.GetElement(name, fields, index)
	if err != nil {
		return nil, err
	}
	return &Cursor{inner: cur}, nil
}

// CostEstimate is a predicted I/O footprint with its milliseconds estimate
// under the default device model (paper §4.1 scan_cost/getElement_cost).
type CostEstimate struct {
	Ms    float64
	Pages uint64
	Seeks uint64
	Rows  int64
}

func toCostEstimate(e cost.Estimate) CostEstimate {
	return CostEstimate{Ms: cost.DefaultModel().Ms(e), Pages: e.Pages, Seeks: e.Seeks, Rows: e.Rows}
}

// ScanCost estimates the cost of a scan without running it.
func (db *DB) ScanCost(name string, q Query) (CostEstimate, error) {
	opts, err := q.toOptions()
	if err != nil {
		return CostEstimate{}, err
	}
	est, err := db.eng.EstimateScan(name, opts)
	if err != nil {
		return CostEstimate{}, err
	}
	return toCostEstimate(est), nil
}

// GetElementCost estimates the cost of a getElement call.
func (db *DB) GetElementCost(name string, fields []string, index ...int64) (CostEstimate, error) {
	est, err := db.eng.EstimateGet(name, fields, index)
	if err != nil {
		return CostEstimate{}, err
	}
	return toCostEstimate(est), nil
}

// OrderList returns the sort orders the current organization serves
// efficiently (paper §4.1 order_list), formatted like OrderBy inputs;
// gridded tables additionally report their cell curve, e.g.
// "zorder(lat,lon)".
func (db *DB) OrderList(name string) ([]string, error) {
	orders, err := db.eng.OrderList(name)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, keys := range orders {
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k.String()
		}
		out = append(out, strings.Join(parts, ", "))
	}
	grid, err := db.eng.GridOrder(name)
	if err != nil {
		return nil, err
	}
	if grid != "" {
		out = append(out, grid)
	}
	return out, nil
}

// ValidateLayout checks a layout expression against a table's schema
// without applying it.
func (db *DB) ValidateLayout(name, layout string) error {
	tab, err := db.cat.Get(name)
	if err != nil {
		return err
	}
	_ = tab
	expr, err := algebra.Parse(layout)
	if err != nil {
		return err
	}
	base, err := algebra.BaseOf(expr)
	if err != nil {
		return err
	}
	if base != name {
		return fmt.Errorf("rodentstore: layout is for table %q, not %q", base, name)
	}
	schemas, err := db.cat.Schemas()
	if err != nil {
		return err
	}
	_, err = algebra.Infer(expr, schemas)
	return err
}

// CreateIndex builds a secondary B+tree index over a stored field (paper
// §1: RodentStore includes B+trees as supporting machinery). An index covers
// the rows stored when it was built. Inserts leave it as it is; Compact keeps
// it for the data before the parts it folds; Reorganize, AlterLayout and
// Load rewrite everything and drop it — rebuild afterwards.
func (db *DB) CreateIndex(table, field string) error { return db.eng.CreateIndex(table, field) }

// DropIndex removes a secondary index.
func (db *DB) DropIndex(table, field string) error { return db.eng.DropIndex(table, field) }

// Indexes lists a table's indexed fields.
func (db *DB) Indexes(table string) ([]string, error) { return db.eng.Indexes(table) }

// IndexScan answers a query through the secondary index on indexField: the
// predicate's bounds on that field drive a B+tree range lookup, and of the
// data the index covers only the blocks holding matching rows are fetched;
// data stored since is scanned with zone-map and grid pruning. The whole
// predicate filters the result, which comes back in stored order — the rows
// Scan returns for the same query. Only Fields and Where apply: a query that
// sets OrderBy, Aggregate or Quarantine is refused.
func (db *DB) IndexScan(table string, q Query, indexField string) (*Cursor, error) {
	opts, err := q.toOptions()
	if err != nil {
		return nil, err
	}
	var unsupported string
	switch {
	case len(opts.Order) > 0:
		unsupported = "OrderBy"
	case opts.Aggregate != nil:
		unsupported = "Aggregate"
	case opts.Quarantine:
		unsupported = "Quarantine"
	}
	if unsupported != "" {
		return nil, fmt.Errorf("rodentstore: IndexScan does not support Query.%s", unsupported)
	}
	cur, err := db.eng.IndexScan(table, opts.Fields, opts.Pred, indexField)
	if err != nil {
		return nil, err
	}
	return &Cursor{inner: cur}, nil
}
