// Package rodentstore is an adaptive, declarative storage system — a Go
// reproduction of "The Case for RodentStore, an Adaptive, Declarative
// Storage System" (Cudré-Mauroux, Wu, Madden; CIDR 2009).
//
// RodentStore separates a table's logical schema from its physical layout.
// The layout is declared with a storage algebra expression that transforms
// the canonical row-major representation: project/colgroup/cols decompose
// vertically, orderby/groupby reorder, grid repartitions onto an
// n-dimensional lattice whose cells are stored along a space-filling curve
// (zorder, hilbert), and delta/rle/dict/bitpack compress individual columns.
// The same data can be re-laid-out at any time with AlterLayout.
//
//	db, _ := rodentstore.Create("traces.rdnt", nil)
//	db.CreateTable("Traces", []rodentstore.Field{
//	    {Name: "t", Type: rodentstore.Int},
//	    {Name: "lat", Type: rodentstore.Float},
//	    {Name: "lon", Type: rodentstore.Float},
//	    {Name: "id", Type: rodentstore.String},
//	}, "delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](Traces))))")
//	db.Load("Traces", rows)
//	cur, _ := db.Scan("Traces", rodentstore.Query{
//	    Where: "lat >= 42.35 and lat < 42.37 and lon >= -71.1 and lon < -71.08",
//	})
//
// The access-method API mirrors the paper's §4.1: Scan, GetElement, Next
// (on Cursor), ScanCost, GetElementCost and OrderList; a storage design
// optimizer (Advise) recommends a layout for a workload, per §5.
package rodentstore

import (
	"fmt"

	"rodentstore/internal/catalog"
	"rodentstore/internal/cost"
	"rodentstore/internal/pager"
	"rodentstore/internal/table"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
	"rodentstore/internal/vfs"
	"rodentstore/internal/wal"
)

// Kind is a column type.
type Kind = value.Kind

// Column types.
const (
	// Int is a 64-bit signed integer column.
	Int = value.Int
	// Float is a 64-bit IEEE-754 column.
	Float = value.Float
	// String is a variable-length UTF-8 column.
	String = value.Str
	// Bytes is a variable-length binary column.
	Bytes = value.Bytes
	// Bool is a boolean column.
	Bool = value.Bool
)

// Field is one column of a table schema.
type Field = value.Field

// Value is one typed cell value.
type Value = value.Value

// Row is one record.
type Row = value.Row

// Batch is one block's worth of scan results as typed column vectors with
// null bitmaps — the vectorized counterpart of iterating rows. Obtained
// from Cursor.NextBatch; read columns through Batch.Cols (Int64s/Float64s
// slices, byte arenas) or box single rows with Batch.Row. A batch is valid
// only until the next cursor call.
type Batch = vec.Batch

// Typed value constructors, re-exported for building rows.
var (
	// IntValue makes an Int value.
	IntValue = value.NewInt
	// FloatValue makes a Float value.
	FloatValue = value.NewFloat
	// StringValue makes a String value.
	StringValue = value.NewString
	// BytesValue makes a Bytes value.
	BytesValue = value.NewBytes
	// BoolValue makes a Bool value.
	BoolValue = value.NewBool
	// Null makes the null value.
	Null = value.NullValue
)

// Options configures Create.
type Options struct {
	// PageSize is the disk page size in bytes (default 1024, the page size
	// of the paper's case study).
	PageSize int
	// CachePages sizes the cache every layout shares, in pages: scans keep
	// decoded column chunks (one column of one block each) in up to
	// CachePages × PageSize bytes, charged by decoded size and evicted with
	// CLOCK, so a warm scan neither reads nor decodes a block again. Entries
	// of an extent go when it is freed or rewritten. 0 (default) bypasses
	// caching so page-read statistics equal cold physical I/O, which is what
	// the paper's experiments measure.
	CachePages int
	// DurableInserts is ignored: every Insert is logged to the write-ahead
	// log as one tail record and waits for the group-commit fsync (one fsync
	// absorbs concurrent inserters) before it returns.
	//
	// Deprecated: inserts are always durable; the field has no effect.
	DurableInserts bool
	// AutoMergeTails enables the background tail-merge worker: when a table
	// accumulates this many unorganized tail batches they are folded into
	// the main rendering off the insert path (paper §5's "reorganize only
	// new data", amortized in the background). 0 (default) disables it;
	// call Reorganize explicitly (the synchronous fallback).
	AutoMergeTails int
	// FS is the filesystem the page file and write-ahead log live on. Nil
	// (default) uses the operating system. Fault-injection tests substitute
	// vfs.NewFault to exercise crash, torn-write and corruption paths.
	FS vfs.FS
}

// DB is a RodentStore database: one page file, its write-ahead log,
// catalog, and storage engine.
type DB struct {
	file *pager.File
	log  *wal.Log
	mgr  *txn.Manager
	cat  *catalog.Catalog
	eng  *table.Engine
}

// Create creates a new database file (truncating any existing one).
func Create(path string, opts *Options) (*DB, error) {
	o := Options{PageSize: pager.DefaultPageSize}
	if opts != nil {
		if opts.PageSize != 0 {
			o.PageSize = opts.PageSize
		}
		o.CachePages = opts.CachePages
		o.AutoMergeTails = opts.AutoMergeTails
		o.FS = opts.FS
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	file, err := pager.CreateAt(o.FS, path, o.PageSize)
	if err != nil {
		return nil, err
	}
	return open(file, path, o)
}

// Open opens an existing database, replaying the write-ahead log. Runtime
// options (background merging, caching) default to off; use
// OpenWithOptions to re-enable them — they are per-session knobs, not
// properties stored in the file.
func Open(path string) (*DB, error) {
	return OpenWithOptions(path, nil)
}

// OpenWithOptions opens an existing database with runtime options. The
// page size always comes from the file; Options.PageSize is ignored.
func OpenWithOptions(path string, opts *Options) (*DB, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	file, err := pager.OpenAt(o.FS, path)
	if err != nil {
		return nil, err
	}
	return open(file, path, o)
}

func open(file *pager.File, path string, o Options) (*DB, error) {
	log, err := wal.OpenAt(o.FS, path+".wal")
	if err != nil {
		file.Close()
		return nil, err
	}
	mgr := txn.NewManager(file, log)
	// The catalog loads before recovery (its extent is flushed in place,
	// never WAL-logged, so replay cannot change it) and the engine is
	// created before Recover so its catalog hooks — checkpoint flush and
	// tail record replay — are in place for the replay itself.
	cat, err := catalog.Load(file)
	if err != nil {
		log.Close()
		file.Close()
		return nil, err
	}
	eng, err := table.NewEngine(file, cat, mgr)
	if err != nil {
		log.Close()
		file.Close()
		return nil, err
	}
	if _, err := mgr.Recover(); err != nil {
		log.Close()
		file.Close()
		return nil, fmt.Errorf("rodentstore: recovery: %w", err)
	}
	db := &DB{file: file, log: log, mgr: mgr, cat: cat, eng: eng}
	if o.AutoMergeTails > 0 {
		db.eng.EnableAutoMerge(o.AutoMergeTails)
	}
	if o.CachePages > 0 {
		db.eng.EnableCache(int64(o.CachePages) * int64(file.PageSize()))
	}
	return db, nil
}

// Close flushes and closes the database: pending background merges drain,
// applied pages are made durable and the write-ahead log is truncated (a
// final checkpoint), then the files close.
func (db *DB) Close() error {
	db.eng.DisableAutoMerge()
	if err := db.mgr.Checkpoint(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		db.file.Close()
		return err
	}
	return db.file.Close()
}

// Checkpoint makes every applied page durable and truncates the write-ahead
// log. Commits defer this work to the manager's log-size trigger; call
// it directly to force the log empty (e.g. before copying the database
// file).
func (db *DB) Checkpoint() error { return db.mgr.Checkpoint() }

// IntegrityReport is the outcome of CheckIntegrity: coverage counters and
// every issue found, typed and extent-addressed.
type IntegrityReport = table.IntegrityReport

// IntegrityIssue is one problem found by CheckIntegrity.
type IntegrityIssue = table.IntegrityIssue

// CheckIntegrity walks the whole store read-only — the page-file header,
// every block of every table (all columns decoded), and the write-ahead
// log's record framing — and reports everything that cannot be read. Damage
// never stops the walk; a non-nil error alongside the (partial) report means
// the walk itself could not proceed (e.g. the catalog is unreadable).
func (db *DB) CheckIntegrity() (*IntegrityReport, error) {
	rep, err := db.eng.CheckIntegrity()
	if err != nil {
		return rep, err
	}
	if herr := db.file.CheckHeader(); herr != nil {
		rep.Issues = append(rep.Issues, IntegrityIssue{Part: "pager header", Segment: -1, Block: -1, Err: herr})
	}
	if _, werr := db.log.Verify(); werr != nil {
		rep.Issues = append(rep.Issues, IntegrityIssue{Part: "wal", Segment: -1, Block: -1, Err: werr})
	}
	return rep, nil
}

// EnableAutoMerge starts (or re-configures) background tail merging: once a
// table accumulates maxTails unorganized tail batches they are folded into
// the main layout off the insert path.
func (db *DB) EnableAutoMerge(maxTails int) {
	db.eng.EnableAutoMerge(maxTails)
}

// DisableAutoMerge stops background tail merging, draining queued merges.
func (db *DB) DisableAutoMerge() { db.eng.DisableAutoMerge() }

// WaitMerges blocks until every queued background merge has completed, then
// reports the most recent background merge error, if any.
func (db *DB) WaitMerges() error {
	db.eng.WaitMerges()
	return db.eng.MergeErr()
}

// PageSize returns the database's page size in bytes.
func (db *DB) PageSize() int { return db.file.PageSize() }

// IOStats is a snapshot of physical I/O counters.
type IOStats struct {
	PageReads  uint64
	PageWrites uint64
	Seeks      uint64
}

// IOStats returns the current counters.
func (db *DB) IOStats() IOStats {
	s := db.file.Stats()
	return IOStats{PageReads: s.PageReads, PageWrites: s.PageWrites, Seeks: s.Seeks}
}

// ResetIOStats zeroes the counters (each measured query starts cold).
func (db *DB) ResetIOStats() { db.file.ResetStats() }

// InvalidateCache empties the cache of decoded column chunks (no-op
// without one), so the next scans read every block from disk and decode it
// again. A scan in flight keeps what it already decoded, and nothing it
// fetched before the call is cached.
func (db *DB) InvalidateCache() error {
	db.eng.InvalidateCache()
	return nil
}

// CostModel returns the default device cost model used by ScanCost and
// GetElementCost.
func CostModel() cost.Model { return cost.DefaultModel() }
