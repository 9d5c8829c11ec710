// Package catalog persists RodentStore's table metadata: logical schemas,
// layout expressions (the persisted form of a physical design — recompiled
// by the algebra interpreter on open), rendered segment locations, grid
// bounds and reorganization state.
//
// The catalog serializes to a compact binary form (see codec.go) and lives
// in its own page extent inside the database file; pager meta slots record
// the extent. Updates write a fresh extent before flipping the meta slots,
// so a crash mid-update leaves the previous catalog intact.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
)

// ErrNotFound is wrapped by lookups and deletes of absent tables. Callers
// that race with DropTable (the background merge worker, most notably) test
// with errors.Is instead of treating every lookup failure as damage.
var ErrNotFound = errors.New("table not found")

// Meta slot assignments in the pager header.
const (
	slotExtentStart = 0
	slotExtentPages = 1
	slotByteLen     = 2
	// slotReflects holds the highest commit id whose update the persisted
	// catalog already contains (see Catalog.issued).
	slotReflects = 3
)

// FieldMeta is the serialized form of a schema field.
type FieldMeta struct {
	Name string
	Type string
}

// GridBoundsMeta records the rendered discretization of one grid dimension.
type GridBoundsMeta struct {
	Field string
	Min   float64
	Max   float64
	Cells int
}

// IndexMeta records one secondary B+tree index: the indexed field, the
// tree's root page, how many stored rows (a prefix of stored order) the
// tree covers, and the tree's pages, one extent per level (btree.Build
// writes each level as one run). Inserts append rows beyond Rows without
// shifting positions; a fold clamps Rows to the first position it replaced.
// Tree hits at or past Rows are ignored; later parts are scanned with
// pruning.
type IndexMeta struct {
	Field   string
	Root    uint64
	Rows    int64
	Extents []pager.Extent
}

// SegmentEntry pairs a vertical partition's definition with its rendered
// extent.
type SegmentEntry struct {
	Fields []string
	Codecs []string
	Meta   segment.Meta
}

// RunEntry is one organized rendering in a table's run hierarchy (leveled
// storage). Level 1 runs hold freshly folded tail batches; compaction folds
// every run of a level into a single run at level+1, so higher levels hold
// strictly older data. Segments is one rendered segment list in the table's
// layout (aligned with Table.Segments vertical partitioning); Rows is the
// run's logical row count.
type RunEntry struct {
	Level    int
	Rows     int64
	Segments []SegmentEntry
}

// Table is the catalog record of one table.
type Table struct {
	Name       string
	Fields     []FieldMeta
	LayoutExpr string
	RowCount   int64
	Segments   []SegmentEntry
	// Runs is the leveled run hierarchy between the bulk-loaded main
	// rendering (Segments, the oldest data) and the unorganized Tails (the
	// newest). Empty unless the table's layout carries a compaction policy.
	Runs       []RunEntry
	Tails      [][]SegmentEntry // per insert batch, aligned with Segments
	GridBounds []GridBoundsMeta
	Indexes    []IndexMeta
	NeedsReorg bool // lazy reorganization pending
	// PendingExpr is the layout to apply on next access when NeedsReorg.
	PendingExpr string
}

// PartKind names the storage shape a Part came from.
type PartKind int

// The three shapes a table's rows are stored in.
const (
	// PartMain is the bulk-rendered main segment list (the oldest data).
	PartMain PartKind = iota
	// PartRun is one organized run of the leveled hierarchy.
	PartRun
	// PartTail is one unorganized insert batch (the newest data).
	PartTail
)

// Part is one aligned segment list of a table — the unit scans concatenate
// and folds consume. Index is the part's position in Table.Runs or
// Table.Tails (0 for main); Level is a run's level (0 otherwise).
type Part struct {
	Kind     PartKind
	Index    int
	Level    int
	Segments []SegmentEntry
}

// String labels the part the way integrity reports address it.
func (p Part) String() string {
	switch p.Kind {
	case PartRun:
		return fmt.Sprintf("run[%d]L%d", p.Index, p.Level)
	case PartTail:
		return fmt.Sprintf("tail[%d]", p.Index)
	default:
		return "main"
	}
}

// Parts lists the table's stored parts in chronological order, oldest data
// first: the main rendering (when one exists), then the runs (kept oldest
// first, which is highest level first), then the tail batches. Concatenated
// in this order the parts give global insert order. Every reader of a
// table's storage walks this list instead of the three fields.
func (t *Table) Parts() []Part {
	parts := make([]Part, 0, 1+len(t.Runs)+len(t.Tails))
	if len(t.Segments) > 0 {
		parts = append(parts, Part{Kind: PartMain, Segments: t.Segments})
	}
	for i, r := range t.Runs {
		parts = append(parts, Part{Kind: PartRun, Index: i, Level: r.Level, Segments: r.Segments})
	}
	for i, batch := range t.Tails {
		parts = append(parts, Part{Kind: PartTail, Index: i, Segments: batch})
	}
	return parts
}

// Extents lists the extents behind parts and index trees: what a table
// owns through them, and what the pager gets back once they are dropped.
func Extents(parts []Part, trees []IndexMeta) []pager.Extent {
	var exts []pager.Extent
	for _, p := range parts {
		for _, s := range p.Segments {
			if s.Meta.ExtentPages > 0 {
				exts = append(exts, pager.Extent{Start: s.Meta.ExtentStart, Count: s.Meta.ExtentPages})
			}
		}
	}
	for _, ix := range trees {
		exts = append(exts, ix.Extents...)
	}
	return exts
}

// Schema reconstructs the value.Schema of the table's logical schema.
func (t *Table) Schema() (*value.Schema, error) {
	fields := make([]value.Field, len(t.Fields))
	for i, f := range t.Fields {
		k, err := value.KindFromString(f.Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: table %s field %s: %w", t.Name, f.Name, err)
		}
		fields[i] = value.Field{Name: f.Name, Type: k}
	}
	return value.NewSchema(fields...)
}

// Catalog is the in-memory catalog bound to a page file.
type Catalog struct {
	// mu serializes updates and flushes. Readers take no lock: tables is
	// published copy-on-write, so a Get never waits for a flush's write and
	// sync.
	mu     sync.Mutex
	file   *pager.File
	tables atomic.Pointer[map[string]*Table]
	extent segment.Meta // current catalog extent (reuses segment.Meta fields)
	encBuf []byte       // reusable flush encode buffer (guarded by mu)
	dirty  bool         // buffered updates not yet persisted (see PutBuffered)
	// issued is the id of the last commit PutBuffered handed out; reflects
	// is the one recorded with the persisted catalog. Both move under mu, in
	// the same critical sections as the records, so "the persisted catalog
	// holds commit id's update" is exactly "id <= reflects": recovery skips
	// the tail records of such commits (ApplyTailAppend).
	issued, reflects uint64

	// DeferFree, when set, takes the previous catalog extent after every
	// flush instead of it being freed inline after the meta-slot flip (the
	// engine queues it to be freed only after the flip is made durable by a
	// checkpoint — reusing it earlier would let a crash roll back to a
	// catalog whose bytes were overwritten). Set before first use; the hook
	// is called with the catalog lock held and must not reenter it.
	DeferFree func(pager.Extent)
}

// Load reads the catalog from the file (empty catalog if none yet).
func Load(file *pager.File) (*Catalog, error) {
	c := &Catalog{file: file}
	tables := make(map[string]*Table)
	c.tables.Store(&tables)
	start := pager.PageID(file.MetaGet(slotExtentStart))
	pages := file.MetaGet(slotExtentPages)
	byteLen := file.MetaGet(slotByteLen)
	if start == pager.InvalidPage || pages == 0 {
		return c, nil
	}
	c.reflects = file.MetaGet(slotReflects)
	c.issued = c.reflects
	// One positional read for the whole extent; the last page's padding past
	// byteLen is not catalog.
	buf, err := file.ReadRunInto(nil, start, pages)
	if err != nil {
		return nil, fmt.Errorf("catalog: read: %w", err)
	}
	if byteLen > uint64(len(buf)) {
		return nil, fmt.Errorf("catalog: %d bytes recorded in a %d-byte extent", byteLen, len(buf))
	}
	buf = buf[:byteLen]
	decoded, err := decodeTables(buf)
	if err != nil {
		return nil, err
	}
	for _, t := range decoded {
		tables[t.Name] = t
	}
	c.extent = segment.Meta{ExtentStart: start, ExtentPages: pages, UsedBytes: byteLen}
	return c, nil
}

// edited returns a copy of the published table map with name's record set
// to t, or removed when t is nil. Caller holds c.mu.
func (c *Catalog) edited(name string, t *Table) map[string]*Table {
	old := *c.tables.Load()
	m := make(map[string]*Table, len(old)+1)
	for n, r := range old {
		m[n] = r
	}
	if t == nil {
		delete(m, name)
	} else {
		m[name] = t
	}
	return m
}

// flush persists the catalog of records m — serialized to a new extent,
// then named by the meta slots — and publishes it. A failed flush publishes
// nothing: the catalog keeps the records it had. Caller holds c.mu.
func (c *Catalog) flush(m map[string]*Table) error {
	tables := make([]*Table, 0, len(m))
	for _, t := range m {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	buf := encodeTablesInto(c.encBuf, tables)
	c.encBuf = buf
	// Write the new extent and flip the meta slots with a single header
	// write: a crash leaves either the whole previous catalog or the whole
	// new one. Only then is the old extent freed, or handed to the DeferFree
	// hook (see the field comment); after a failed flush it stays the
	// catalog's.
	ext, err := c.file.ReplaceMetaExtent(slotExtentStart, slotExtentPages, slotByteLen, slotReflects, c.issued, buf)
	if err != nil {
		return err
	}
	if old := (pager.Extent{Start: c.extent.ExtentStart, Count: c.extent.ExtentPages}); old.Count > 0 {
		if c.DeferFree != nil {
			c.DeferFree(old)
		} else {
			// The flush has landed, so it reports success: the pager refuses
			// only a free of pages already free, and those are no more the
			// catalog's than the old extent is.
			_ = c.file.FreeRun(old.Start, old.Count)
		}
	}
	c.tables.Store(&m)
	c.extent = segment.Meta{ExtentStart: ext.Start, ExtentPages: ext.Count, UsedBytes: uint64(len(buf))}
	c.reflects = c.issued
	c.dirty = false // a full flush persists buffered updates too
	return nil
}

// Owned calls fn with every extent the catalog owns: its own extent and
// every table's parts and index trees. It runs under the catalog lock, so
// no flush or update moves them until fn returns; fn must not call into the
// catalog.
func (c *Catalog) Owned(fn func([]pager.Extent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var exts []pager.Extent
	if c.extent.ExtentPages > 0 {
		exts = append(exts, pager.Extent{Start: c.extent.ExtentStart, Count: c.extent.ExtentPages})
	}
	for _, t := range *c.tables.Load() {
		exts = append(exts, Extents(t.Parts(), t.Indexes)...)
	}
	fn(exts)
}

// Get returns the table record, or an error if absent. It takes no lock.
// Records are treated as immutable once published: a flush (checkpoint) may
// encode any record concurrently with engine work, so mutators copy the
// record, update the copy, and swap it in with Put or PutBuffered rather
// than writing through this pointer.
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := (*c.tables.Load())[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// Has reports whether the table exists.
func (c *Catalog) Has(name string) bool {
	_, ok := (*c.tables.Load())[name]
	return ok
}

// Names lists table names sorted.
func (c *Catalog) Names() []string {
	tables := *c.tables.Load()
	out := make([]string, 0, len(tables))
	for n := range tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Put inserts or replaces a table record and flushes the catalog. If the
// flush fails, the record is not published. The flush's header write is
// durable only once the file is synced again (the engine's DDL checkpoints
// right after).
func (c *Catalog) Put(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flush(c.edited(t.Name, t))
}

// PutBuffered inserts or replaces a table record in memory only and returns
// a fresh commit id; the change is persisted by the next Flush (or by any
// full flush from Put/Delete), which syncs the file first, so pages the
// record names need no sync of their own. Tail inserts log their
// record under the id (EncodeTailAppend): each insert's catalog rewrite
// would be O(catalog size), the single largest serialized cost on the
// ingest path, while the tail record is O(batch). Folds publish through it
// too and leave persistence to the next checkpoint.
func (c *Catalog) PutBuffered(t *Table) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.edited(t.Name, t)
	c.tables.Store(&m)
	c.dirty = true
	c.issued++
	return c.issued
}

// Flush persists buffered updates; it is a no-op when the catalog is clean.
// The transaction manager calls it before every checkpoint, so the on-disk
// catalog is current whenever the WAL is truncated.
func (c *Catalog) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	return c.flush(*c.tables.Load())
}

// Delete removes a table record and persists the catalog; if the flush
// fails, the record stays. The caller frees the table's extents once it
// succeeded.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := (*c.tables.Load())[name]; !ok {
		return fmt.Errorf("catalog: no table %q: %w", name, ErrNotFound)
	}
	return c.flush(c.edited(name, nil))
}

// Schemas returns the name→schema map of every table (the input the algebra
// interpreter needs).
func (c *Catalog) Schemas() (map[string]*value.Schema, error) {
	tables := *c.tables.Load()
	out := make(map[string]*value.Schema, len(tables))
	for n, t := range tables {
		s, err := t.Schema()
		if err != nil {
			return nil, err
		}
		out[n] = s
	}
	return out, nil
}

// FieldsOf converts a value.Schema into catalog field metadata.
func FieldsOf(s *value.Schema) []FieldMeta {
	out := make([]FieldMeta, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = FieldMeta{Name: f.Name, Type: f.Type.String()}
	}
	return out
}
