// Package pager implements RodentStore's lowest storage layer: a single-file
// page store with checksummed fixed-size pages, extent (contiguous page run)
// allocation, persistent metadata slots, and I/O statistics.
//
// The statistics are the measurement substrate for the paper's evaluation:
// Figure 2 reports the *number of disk pages read per query* and argues that
// z-ordering "reduces the number of disk seeks". The pager counts a logical
// page read per ReadPage and a seek whenever the requested page is not the
// successor of the previously read page, which reproduces both metrics
// without depending on physical hardware.
//
// Concurrency: page reads and writes use positional I/O (ReadAt/WriteAt) and
// never serialize on a global lock — concurrent readers of distinct pages
// proceed fully in parallel. A striped reader/writer lock per page keeps a
// read from observing a torn concurrent write of the same page. Allocation,
// the free list, metadata slots and header writes sit under one small
// mutex, and the I/O counters are atomics. Seek adjacency (lastRead) is
// tracked under its own tiny lock, so single-threaded experiment runs
// produce exactly the same Seeks/SeekDistance as the original serial pager.
//
// Layout: page 0 is the header (magic, page size, allocation cursor, meta
// slots and a crc32 of them: headerSize bytes, within one sector, so a torn
// write cannot leave half of it); all other pages belong to callers. Each
// page is [crc32 (4 B) | payload]. Dense-packing of data into payloads is
// the segment layer's job (paper §3.1 "Data Reduction").
//
// Free space is not persisted: at open the caller hands over every extent
// its durable metadata names (Reclaim), and the rest is free. Only Create,
// Close and the catalog's flush (ReplaceMetaExtent) write the header.
package pager

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"rodentstore/internal/vfs"
)

// PageID identifies a page in the file. Page 0 is the header; callers never
// see it. InvalidPage (0) marks "no page".
type PageID uint64

// InvalidPage is the zero PageID; it never refers to a data page.
const InvalidPage PageID = 0

const (
	// DefaultPageSize matches the case study's 1 KB pages (paper §6; see
	// DESIGN.md for why "1000 KB" is read as 1 KB).
	DefaultPageSize = 1024
	// MinPageSize bounds how small new files' pages may be: the smallest
	// power of two that holds the header (headerSize bytes).
	MinPageSize = 256
	// MaxPageSize bounds how large pages may be.
	MaxPageSize = 1 << 20

	pageHeaderSize = 4 // crc32 of payload
	// magic is the header magic; a file of any other format is refused.
	magic = "RDNT0003"
	// metaSlots is the number of uint64 metadata slots exposed to upper
	// layers (catalog roots, WAL cursors, ...).
	metaSlots = 16
	// headerSize is the header's length: magic, page size u32, allocation
	// cursor u64, the meta slots, and a crc32 of everything before it. It
	// fits one vfs.SectorSize sector, so a crash keeps all of a header
	// write or none of it.
	headerSize = len(magic) + 4 + 8 + metaSlots*8 + 4
	// pageStripes is the number of page-level RW locks. Distinct pages in
	// different stripes never contend; same-page read/write pairs are
	// serialized so checksums stay consistent.
	pageStripes = 128
)

// Stats counts logical I/O. Seeks increments when a read is not sequential
// with the previous read (first read after reset counts as one seek).
type Stats struct {
	PageReads  uint64
	PageWrites uint64
	Seeks      uint64
	// SeekDistance sums |target − expected| pages over all seeks: the total
	// head travel a spinning disk would perform. Space-filling curves lower
	// this even when the seek count stays flat (nearby cells in space land
	// nearby on disk), which is the paper's z-ordering argument.
	SeekDistance uint64
}

// counters is the lock-free internal form of Stats.
type counters struct {
	pageReads    atomic.Uint64
	pageWrites   atomic.Uint64
	seeks        atomic.Uint64
	seekDistance atomic.Uint64
}

// Extent is a contiguous run of pages [Start, Start+Count).
type Extent struct {
	Start PageID
	Count uint64
}

// ErrCorruptPage reports a page whose stored checksum does not match its
// content (or, for page 0, a header that fails validation). It carries the
// page identity so upper layers can quarantine the extent that owns it.
type ErrCorruptPage struct {
	Page   PageID
	Detail string
}

func (e *ErrCorruptPage) Error() string {
	return fmt.Sprintf("pager: page %d corrupt: %s", e.Page, e.Detail)
}

// File is a page store backed by one file (the OS implementation in
// production; vfs.Fault under fault-injection tests). All methods are safe
// for concurrent use; page reads and writes do not take any global lock.
type File struct {
	f        vfs.File
	pageSize int

	// mu guards allocation state: the free list, metadata slots and header
	// writes. It is never held across page I/O issued by readers.
	mu   sync.Mutex
	free []Extent // sorted by Start, coalesced
	// freePages is the page total of free, so NumPages is O(1).
	freePages uint64
	meta      [metaSlots]uint64

	// nextPage is the allocation cursor (== number of pages incl. header).
	// Written under mu; read lock-free by checkID.
	nextPage atomic.Uint64

	// filePages is the file's size in pages (>= nextPage). The file grows
	// in batches so extending allocations do not pay one ftruncate (an ext4
	// journal transaction) each; pages in [nextPage, filePages) are
	// unallocated slack. Guarded by mu.
	filePages uint64

	// pageLocks stripes page-level access so a reader never observes a torn
	// concurrent write of the same page. Readers share the stripe.
	pageLocks [pageStripes]sync.RWMutex

	stats counters

	// invalidators are the page caches layered over this file (see
	// OnInvalidate): a copy-on-write list, replaced under mu, read lock-free
	// by the write and free paths.
	invalidators atomic.Pointer[[]func(start PageID, n uint64)]

	// seekMu orders seek-adjacency tracking. Serial callers see exactly the
	// historical Seeks/SeekDistance accounting.
	seekMu   sync.Mutex
	lastRead PageID
	haveLast bool
}

// Create creates a new page file at path on the OS file system with the
// given page size, truncating any existing file.
func Create(path string, pageSize int) (*File, error) {
	return CreateAt(vfs.OS, path, pageSize)
}

// CreateAt creates a new page file on the given file system.
func CreateAt(fsys vfs.FS, path string, pageSize int) (*File, error) {
	if pageSize < MinPageSize || pageSize > MaxPageSize {
		return nil, fmt.Errorf("pager: page size %d out of range [%d,%d]", pageSize, MinPageSize, MaxPageSize)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: create %s: %w", path, err)
	}
	p := &File{f: f, pageSize: pageSize, filePages: 1}
	p.nextPage.Store(1)
	p.mu.Lock()
	err = p.writeHeader()
	p.mu.Unlock()
	if err == nil {
		// Make the fresh header durable: a crash after Create must reopen as
		// an empty store, not as a missing or headerless file.
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// Open opens an existing page file on the OS file system and restores its
// header state.
//
//lint:allow deadexport tests reopen a page file they wrote on disk; the engine opens through OpenAt
func Open(path string) (*File, error) {
	return OpenAt(vfs.OS, path)
}

// OpenAt opens an existing page file on the given file system. Nothing is
// free until the caller hands over the extents its metadata owns (Reclaim).
func OpenAt(fsys vfs.FS, path string) (*File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	buf := make([]byte, headerSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: read header of %s: %w", path, err)
	}
	p := &File{f: f}
	if err := p.parseHeader(buf); err != nil {
		f.Close()
		return nil, err
	}
	if sz, err := f.Size(); err == nil {
		p.filePages = uint64(sz) / uint64(p.pageSize)
	}
	if p.filePages < p.nextPage.Load() {
		// A crash can leave the header cursor ahead of the file; restore
		// the invariant that the file covers every allocated page.
		if err := f.Truncate(int64(p.nextPage.Load()) * int64(p.pageSize)); err != nil {
			f.Close()
			return nil, fmt.Errorf("pager: restore size: %w", err)
		}
		p.filePages = p.nextPage.Load()
	}
	return p, nil
}

// writeHeader writes the header: the 8-byte magic, pageSize u32, nextPage
// u64, meta[16] u64 and a crc32 of the bytes before it. Caller holds p.mu.
func (p *File) writeHeader() error {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.pageSize))
	buf = binary.LittleEndian.AppendUint64(buf, p.nextPage.Load())
	for _, m := range p.meta {
		buf = binary.LittleEndian.AppendUint64(buf, m)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := p.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("pager: write header: %w", err)
	}
	return nil
}

// parseHeader validates a header image — magic, checksum, page size — and
// restores the state it records. Anything else is a typed *ErrCorruptPage
// for page 0.
func (p *File) parseHeader(buf []byte) error {
	if string(buf[:len(magic)]) != magic {
		return &ErrCorruptPage{Page: 0, Detail: fmt.Sprintf("bad magic %q (not a RodentStore file of format %s)", buf[:len(magic)], magic)}
	}
	want := binary.LittleEndian.Uint32(buf[headerSize-4:])
	if got := crc32.ChecksumIEEE(buf[:headerSize-4]); got != want {
		return &ErrCorruptPage{Page: 0, Detail: "header checksum mismatch"}
	}
	off := len(magic)
	p.pageSize = int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if p.pageSize < MinPageSize || p.pageSize > MaxPageSize {
		return &ErrCorruptPage{Page: 0, Detail: fmt.Sprintf("header page size %d", p.pageSize)}
	}
	p.nextPage.Store(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	for i := range p.meta {
		p.meta[i] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	return nil
}

// CheckHeader re-reads and re-validates the header from disk, including its
// checksum. It is the integrity walker's entry point for page 0 (which
// ReadPage never serves).
func (p *File) CheckHeader() error {
	buf := make([]byte, headerSize)
	p.mu.Lock() // header writes happen under mu; avoid reading one torn
	_, err := p.f.ReadAt(buf, 0)
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("pager: read header: %w", err)
	}
	return (&File{}).parseHeader(buf)
}

// PageSize returns the page size in bytes.
func (p *File) PageSize() int { return p.pageSize }

// PayloadSize returns the usable bytes per page.
func (p *File) PayloadSize() int { return p.pageSize - pageHeaderSize }

// NumPages returns the number of pages allocated so far, excluding header
// and free pages.
func (p *File) NumPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextPage.Load() - 1 - p.freePages
}

// MetaGet reads a persistent metadata slot.
func (p *File) MetaGet(slot int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meta[slot]
}

// MetaSet sets a metadata slot; the next header write (a catalog flush or
// Close) persists it.
//
//lint:allow deadexport tests forge header slots that no catalog flush writes
func (p *File) MetaSet(slot int, v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta[slot] = v
}

// Reclaim makes free space the complement of owned, the extents the
// caller's durable metadata names, within [1, cursor), and lowers the
// cursor to the end of the last owned extent: an extent nothing durable
// names holds nothing a crash must preserve. Call it right after opening,
// before the first allocation. Owned extents that overlap each other or
// pass the cursor are refused, and nothing changes.
func (p *File) Reclaim(owned []Extent) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if errs := audit(owned, nil, p.nextPage.Load()); len(errs) > 0 {
		return errors.Join(errs...)
	}
	owned = slices.SortedFunc(slices.Values(owned), func(a, b Extent) int { return cmp.Compare(a.Start, b.Start) })
	p.free, p.freePages = nil, 0
	next := PageID(1)
	for _, e := range owned {
		if e.Start > next {
			p.free = append(p.free, Extent{Start: next, Count: uint64(e.Start - next)})
			p.freePages += uint64(e.Start - next)
		}
		next = max(next, e.Start+PageID(e.Count)) // a zero-count extent may sit inside another
	}
	p.nextPage.Store(uint64(next))
	return nil
}

// CheckExtents audits owned, the extents the caller's metadata names,
// against the allocation state: it returns one error per owned extent that
// overlaps another, touches free space or passes the cursor, and the free
// page total.
func (p *File) CheckExtents(owned []Extent) (freePages uint64, errs []error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freePages, audit(owned, p.free, p.nextPage.Load())
}

// audit is CheckExtents over an explicit free list and cursor.
func audit(owned, free []Extent, cursor uint64) []error {
	type span struct {
		Extent
		free bool
	}
	spans := make([]span, 0, len(owned)+len(free))
	for _, e := range owned {
		if e.Count > 0 {
			spans = append(spans, span{Extent: e})
		}
	}
	for _, e := range free {
		spans = append(spans, span{Extent: e, free: true})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	name := func(s span) string {
		if s.free {
			return fmt.Sprintf("free extent [%d,+%d)", s.Start, s.Count)
		}
		return fmt.Sprintf("owned extent [%d,+%d)", s.Start, s.Count)
	}
	var errs []error
	var reach span // the span reaching furthest so far
	for _, s := range spans {
		if !s.free && (s.Start == InvalidPage || uint64(s.Start)+s.Count > cursor) {
			errs = append(errs, fmt.Errorf("pager: %s is outside [1,%d)", name(s), cursor))
		}
		if s.Start < reach.Start+PageID(reach.Count) {
			errs = append(errs, fmt.Errorf("pager: %s overlaps %s", name(reach), name(s)))
		}
		if s.Start+PageID(s.Count) > reach.Start+PageID(reach.Count) {
			reach = s
		}
	}
	return errs
}

// growTo extends the file to cover at least next pages, growing in batches
// (at least 64 pages, at most 16384, doubling with the file) so sequential
// extending allocations pay one ftruncate per batch, not one each. Caller
// holds p.mu.
func (p *File) growTo(next uint64) error {
	if next <= p.filePages {
		return nil
	}
	step := p.filePages
	if step < 64 {
		step = 64
	}
	if step > 16384 {
		step = 16384
	}
	target := p.filePages + step
	if target < next {
		target = next
	}
	// Extend the file so reads of unwritten pages fail loudly via checksum
	// rather than short reads. The new cursor publishes only after the file
	// covers it. Preallocation (vs a sparse truncate) means later page
	// writes do not allocate filesystem blocks, keeping them out of the
	// journal's way when the WAL fsyncs concurrently.
	if err := p.f.Preallocate(int64(target) * int64(p.pageSize)); err != nil {
		return fmt.Errorf("pager: extend: %w", err)
	}
	p.filePages = target
	return nil
}

// allocateLocked carves n contiguous pages from a free extent (first fit)
// or the end of the file. Caller holds p.mu.
func (p *File) allocateLocked(n uint64) (PageID, error) {
	for i, e := range p.free {
		if e.Count >= n {
			start := e.Start
			p.free[i].Start += PageID(n)
			p.free[i].Count -= n
			if p.free[i].Count == 0 {
				p.free = append(p.free[:i], p.free[i+1:]...)
			}
			p.freePages -= n
			return start, nil
		}
	}
	start := PageID(p.nextPage.Load())
	next := uint64(start) + n
	if err := p.growTo(next); err != nil {
		return InvalidPage, err
	}
	p.nextPage.Store(next)
	return start, nil
}

// AllocateRun allocates n contiguous pages, reusing a free extent when one
// fits (first fit) and extending the file otherwise.
func (p *File) AllocateRun(n uint64) (PageID, error) {
	if n == 0 {
		return InvalidPage, fmt.Errorf("pager: zero-length allocation")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocateLocked(n)
}

// Allocate allocates a single page.
func (p *File) Allocate() (PageID, error) { return p.AllocateRun(1) }

// freeLocked returns an extent to the free list, coalescing with
// neighbours. Caller holds p.mu.
func (p *File) freeLocked(start PageID, n uint64) {
	p.freePages += n
	i, _ := slices.BinarySearchFunc(p.free, start, func(e Extent, id PageID) int { return cmp.Compare(e.Start, id) })
	p.free = slices.Insert(p.free, i, Extent{start, n})
	if i+1 < len(p.free) && start+PageID(n) == p.free[i+1].Start {
		p.free[i].Count += p.free[i+1].Count
		p.free = slices.Delete(p.free, i+1, i+2)
	}
	if i > 0 && p.free[i-1].Start+PageID(p.free[i-1].Count) == start {
		p.free[i-1].Count += p.free[i].Count
		p.free = slices.Delete(p.free, i, i+1)
	}
}

// FreeRun returns an extent to the free list, coalescing with neighbours.
func (p *File) FreeRun(start PageID, n uint64) error {
	if start == InvalidPage || n == 0 {
		return fmt.Errorf("pager: bad free of %d pages at %d", n, start)
	}
	p.mu.Lock()
	p.freeLocked(start, n)
	p.mu.Unlock()
	p.invalidate(start, n)
	return nil
}

// OnInvalidate registers fn to be told about every extent whose cached
// copies just went stale: FreeRun's extent (its pages are dead) and
// WriteRun's (its pages hold new bytes). Extents are written once between
// allocation and free, so a cache over the file that drops the named pages
// in fn can never serve a freed-and-reused page's previous contents. fn runs
// with no pager lock held.
func (p *File) OnInvalidate(fn func(start PageID, n uint64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var fns []func(PageID, uint64)
	if old := p.invalidators.Load(); old != nil {
		fns = append(fns, *old...)
	}
	fns = append(fns, fn)
	p.invalidators.Store(&fns)
}

func (p *File) invalidate(start PageID, n uint64) {
	if fns := p.invalidators.Load(); fns != nil {
		for _, fn := range *fns {
			fn(start, n)
		}
	}
}

// noteRead updates seek-adjacency tracking for a read of page id.
func (p *File) noteRead(id PageID) {
	p.seekMu.Lock()
	if !p.haveLast || id != p.lastRead+1 {
		p.stats.seeks.Add(1)
		if p.haveLast {
			expected := p.lastRead + 1
			if id > expected {
				p.stats.seekDistance.Add(uint64(id - expected))
			} else {
				p.stats.seekDistance.Add(uint64(expected - id))
			}
		}
	}
	p.lastRead, p.haveLast = id, true
	p.seekMu.Unlock()
}

// ReadPage reads the payload of page id into a fresh slice, verifying the
// checksum and updating read/seek statistics. Concurrent reads of distinct
// pages run fully in parallel (positional I/O, no global lock).
func (p *File) ReadPage(id PageID) ([]byte, error) {
	if err := p.checkID(id); err != nil {
		return nil, err
	}
	lk := &p.pageLocks[uint64(id)%pageStripes]
	buf := make([]byte, p.pageSize)
	lk.RLock()
	_, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize))
	lk.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	p.stats.pageReads.Add(1)
	p.noteRead(id)
	want := binary.LittleEndian.Uint32(buf)
	if got := crc32.ChecksumIEEE(buf[pageHeaderSize:]); got != want {
		return nil, &ErrCorruptPage{Page: id, Detail: "checksum mismatch (corrupt or never written)"}
	}
	return buf[pageHeaderSize:], nil
}

// noteReadRun updates seek-adjacency tracking for a coalesced read of npages
// pages starting at start. The accounting is identical to a ReadPage loop
// over the run: at most one seek (to reach the run's first page), and the
// cursor ends on the run's last page.
func (p *File) noteReadRun(start PageID, npages uint64) {
	p.seekMu.Lock()
	if !p.haveLast || start != p.lastRead+1 {
		p.stats.seeks.Add(1)
		if p.haveLast {
			expected := p.lastRead + 1
			if start > expected {
				p.stats.seekDistance.Add(uint64(start - expected))
			} else {
				p.stats.seekDistance.Add(uint64(expected - start))
			}
		}
	}
	p.lastRead, p.haveLast = start+PageID(npages)-1, true
	p.seekMu.Unlock()
}

// ReadRunInto reads the payloads of npages pages starting at start with a
// single positional read, verifying each page's checksum and appending the
// payloads to dst. It is the read-side twin of WriteRun: functionally
// equivalent to a ReadPage loop over the run — identical page-read and seek
// statistics — but paying one syscall for the whole run. The pages are read
// straight into dst's spare capacity and each payload is then moved down
// over the page headers, so a dst with room for npages whole pages makes the
// call allocation-free (a segment reader's block fetch relies on this).
//
// On a checksum failure the payloads of the pages *before* the corrupt one
// are still appended (a verified prefix callers may use) and the returned
// *ErrCorruptPage identifies the failing page. On a read error nothing is
// appended and no statistics are counted.
func (p *File) ReadRunInto(dst []byte, start PageID, npages uint64) ([]byte, error) {
	if npages == 0 {
		return dst, nil
	}
	if err := p.checkID(start); err != nil {
		return dst, err
	}
	if err := p.checkID(start + PageID(npages-1)); err != nil {
		return dst, err
	}
	base, ps, payload := len(dst), p.pageSize, p.pageSize-pageHeaderSize
	buf := slices.Grow(dst, int(npages)*ps)[:base+int(npages)*ps]
	raw := buf[base:]
	// Share the read side of every stripe the run touches so no page in the
	// run is observed mid-write; concurrent readers still proceed in parallel.
	p.eachRunStripe(start, npages, (*sync.RWMutex).RLock)
	_, err := p.f.ReadAt(raw, int64(start)*int64(ps))
	p.eachRunStripe(start, npages, (*sync.RWMutex).RUnlock)
	if err != nil {
		return dst, fmt.Errorf("pager: read run [%d,%d): %w", start, uint64(start)+npages, err)
	}
	for i := 0; i < int(npages); i++ {
		// Payloads before page i have moved down by at most 4*i bytes, so
		// page i's raw bytes are still intact here.
		page := raw[i*ps : (i+1)*ps]
		if crc32.ChecksumIEEE(page[pageHeaderSize:]) != binary.LittleEndian.Uint32(page) {
			p.stats.pageReads.Add(uint64(i))
			if i > 0 {
				p.noteReadRun(start, uint64(i))
			}
			return buf[:base+i*payload], &ErrCorruptPage{Page: start + PageID(i), Detail: "checksum mismatch (corrupt or never written)"}
		}
		copy(buf[base+i*payload:], page[pageHeaderSize:])
	}
	p.stats.pageReads.Add(npages)
	p.noteReadRun(start, npages)
	return buf[:base+int(npages)*payload], nil
}

// eachRunStripe calls fn on every page-lock stripe the run [start,
// start+npages) touches, once each and in index order: the one order every
// run reader and run writer takes them in, so they cannot deadlock against
// each other.
func (p *File) eachRunStripe(start PageID, npages uint64, fn func(*sync.RWMutex)) {
	if npages >= pageStripes {
		for i := range p.pageLocks {
			fn(&p.pageLocks[i])
		}
		return
	}
	first := uint64(start) % pageStripes
	end := first + npages
	if end > pageStripes { // the run wraps: stripes [0, end-pageStripes) come first
		for i := uint64(0); i < end-pageStripes; i++ {
			fn(&p.pageLocks[i])
		}
		end = pageStripes
	}
	for i := first; i < end; i++ {
		fn(&p.pageLocks[i])
	}
}

// WritePage writes payload (at most PayloadSize bytes) to page id.
func (p *File) WritePage(id PageID, payload []byte) error {
	if err := p.checkID(id); err != nil {
		return err
	}
	if len(payload) > p.pageSize-pageHeaderSize {
		return fmt.Errorf("pager: payload %d exceeds page payload %d", len(payload), p.pageSize-pageHeaderSize)
	}
	buf := make([]byte, p.pageSize)
	copy(buf[pageHeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[pageHeaderSize:]))
	lk := &p.pageLocks[uint64(id)%pageStripes]
	lk.Lock()
	_, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize))
	lk.Unlock()
	if err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	p.stats.pageWrites.Add(1)
	return nil
}

// WriteRun writes payload across the extent starting at start — one page
// per PayloadSize chunk, the last page zero-padded — in a single positional
// write. Functionally equivalent to a WritePage loop but pays one syscall
// for the whole extent, which is what makes bulk publishes (segment
// renders, catalog flips) cheap. Page-write statistics count one write per
// page, as the loop would.
func (p *File) WriteRun(start PageID, payload []byte) error {
	payloadSize := p.pageSize - pageHeaderSize
	npages := uint64(len(payload)+payloadSize-1) / uint64(payloadSize)
	if npages == 0 {
		npages = 1
	}
	if err := p.checkID(start); err != nil {
		return err
	}
	if err := p.checkID(start + PageID(npages-1)); err != nil {
		return err
	}
	bp, _ := runBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := slices.Grow((*bp)[:0], int(npages)*p.pageSize)[:int(npages)*p.pageSize]
	for i := uint64(0); i < npages; i++ {
		page := buf[i*uint64(p.pageSize) : (i+1)*uint64(p.pageSize)]
		lo := int(i) * payloadSize
		hi := lo + payloadSize
		if hi > len(payload) {
			hi = len(payload)
		}
		n := 0
		if lo < len(payload) {
			n = copy(page[pageHeaderSize:], payload[lo:hi])
		}
		clear(page[pageHeaderSize+n:]) // pooled buffer may hold old bytes
		binary.LittleEndian.PutUint32(page, crc32.ChecksumIEEE(page[pageHeaderSize:]))
	}
	// Take every stripe the run touches, in order, so no reader of any page
	// in the run observes a torn write.
	p.eachRunStripe(start, npages, (*sync.RWMutex).Lock)
	_, err := p.f.WriteAt(buf, int64(start)*int64(p.pageSize))
	p.eachRunStripe(start, npages, (*sync.RWMutex).Unlock)
	*bp = buf
	runBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("pager: write run [%d,%d): %w", start, uint64(start)+npages, err)
	}
	p.stats.pageWrites.Add(npages)
	p.invalidate(start, npages)
	return nil
}

// runBufPool recycles WriteRun's staging buffers (extent image with page
// headers), as *[]byte so a Put allocates nothing; bulk publishes would
// otherwise allocate tens of KB per call.
var runBufPool sync.Pool

// ReplaceMetaExtent is the crash-safe "write new extent, flip pointers,
// free old" pattern, and the catalog's flush primitive: it allocates a fresh
// extent for payload, writes it (one positional write), points the three
// meta slots at it (start page, page count, byte length), sets slotTag to
// tag, frees the old extent, and writes the header. The file is fsynced
// between the payload write and the header write, so the header cannot
// reach disk ahead of the payload or of any page written before the call.
// A crash before the header write leaves the previous state fully intact;
// after it, the new state — tag included, so a value describing the
// payload never pairs with another payload. The header is one sector, so
// no crash leaves part of it.
func (p *File) ReplaceMetaExtent(slotStart, slotPages, slotLen, slotTag int, tag uint64, payload []byte, old Extent) (Extent, error) {
	payloadSize := uint64(p.pageSize - pageHeaderSize)
	npages := (uint64(len(payload)) + payloadSize - 1) / payloadSize
	if npages == 0 {
		npages = 1
	}
	p.mu.Lock()
	start, err := p.allocateLocked(npages)
	p.mu.Unlock()
	if err != nil {
		return Extent{}, err
	}
	if err := p.WriteRun(start, payload); err != nil {
		return Extent{}, err
	}
	if err := p.f.Sync(); err != nil {
		return Extent{}, fmt.Errorf("pager: sync: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta[slotStart] = uint64(start)
	p.meta[slotPages] = npages
	p.meta[slotLen] = uint64(len(payload))
	p.meta[slotTag] = tag
	if old.Start != InvalidPage && old.Count > 0 {
		p.freeLocked(old.Start, old.Count)
	}
	if err := p.writeHeader(); err != nil {
		return Extent{}, err
	}
	return Extent{Start: start, Count: npages}, nil
}

func (p *File) checkID(id PageID) error {
	if id == InvalidPage || uint64(id) >= p.nextPage.Load() {
		return fmt.Errorf("pager: page %d out of range [1,%d)", id, p.nextPage.Load())
	}
	return nil
}

// Sync fsyncs the file.
func (p *File) Sync() error {
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync: %w", err)
	}
	return nil
}

// Close trims the file to the allocation cursor — growTo's preallocated
// slack holds no page — writes the header, then syncs and closes the file.
// A crash between the trim and the sync is harmless: the file still covers
// every allocated page, and OpenAt re-extends one shorter than its header
// cursor.
func (p *File) Close() error {
	var err error
	p.mu.Lock()
	if next := p.nextPage.Load(); p.filePages > next {
		err = p.f.Truncate(int64(next) * int64(p.pageSize))
		p.filePages = next
	}
	if err == nil {
		err = p.writeHeader()
	}
	p.mu.Unlock()
	if err == nil {
		err = p.Sync()
	}
	if err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}

// Stats returns a snapshot of the I/O counters.
func (p *File) Stats() Stats {
	return Stats{
		PageReads:    p.stats.pageReads.Load(),
		PageWrites:   p.stats.pageWrites.Load(),
		Seeks:        p.stats.seeks.Load(),
		SeekDistance: p.stats.seekDistance.Load(),
	}
}

// ResetStats zeroes the counters and resets seek tracking, so each measured
// query starts cold.
func (p *File) ResetStats() {
	p.seekMu.Lock()
	p.stats.pageReads.Store(0)
	p.stats.pageWrites.Store(0)
	p.stats.seeks.Store(0)
	p.stats.seekDistance.Store(0)
	p.lastRead, p.haveLast = 0, false
	p.seekMu.Unlock()
}
