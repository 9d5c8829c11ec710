// Package buffer implements RodentStore's shared buffer pool. The paper's
// core motivation (§1) is that every new storage engine duplicates
// "transaction, lock, and memory management facilities"; the buffer pool is
// the memory-management facility shared by every layout RodentStore renders.
//
// The pool caches page payloads above the pager with CLOCK (second-chance)
// eviction, pin counts, dirty tracking and write-back. To scale with
// concurrent readers, frames are split into lock-striped shards keyed by a
// hash of the PageID: each shard has its own mutex, frame array, CLOCK hand
// and atomic hit/miss counters, so scans on different goroutines contend
// only when they touch pages in the same shard. A shard lock is never held
// across a miss's disk read — the page is fetched outside the lock and the
// insert race (two goroutines missing on the same page) is resolved by
// adopting whichever frame was installed first.
//
// Logical I/O statistics for experiments are taken at the pager, so measured
// scans run with a cold pool (or bypass it) to reproduce the paper's page
// counts.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
)

// errShardPinned marks eviction failure because every frame of the target
// shard is pinned; scan paths degrade to uncached reads instead of failing.
var errShardPinned = errors.New("all frames in shard pinned")

// Stats counts pool activity, aggregated over all shards.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

type frame struct {
	id       pager.PageID
	data     []byte
	pins     int
	dirty    bool
	refbit   bool // CLOCK second-chance bit
	occupied bool
	// pending is non-nil while the frame's disk read is in flight: the
	// frame is claimed (pinned, indexed) before the shard lock drops, so a
	// concurrent write+evict of the same page can never race a stale copy
	// into the cache. Waiters block on the channel, which closes when the
	// read completes (or fails and the frame is released).
	pending chan struct{}
	// stale marks a frame whose page was rewritten or freed underneath a
	// pinned reader (see discard): it serves nobody new and is dropped when
	// the last pin goes.
	stale bool
}

// shard is one lock stripe of the pool: a private frame array with its own
// CLOCK hand and index.
type shard struct {
	mu     sync.Mutex
	frames []frame
	index  map[pager.PageID]int // page -> frame
	hand   int                  // CLOCK hand

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	flushes   atomic.Uint64
}

// Pool is a fixed-capacity page cache. All methods are safe for concurrent
// use.
type Pool struct {
	file   *pager.File
	shards []*shard
	mask   uint64
}

// maxShards bounds lock striping; beyond this the per-shard CLOCK domains
// get too small to evict sensibly.
const maxShards = 16

// numShards picks a power-of-two shard count for a capacity, keeping at
// least 16 frames per shard so each shard's CLOCK has headroom even when
// several frames are pinned at once. Small pools (capacity < 32)
// degenerate to a single shard, which preserves the exact historical
// single-pool eviction behavior.
func numShards(capacity int) int {
	n := 1
	for n < maxShards && n*32 <= capacity {
		n *= 2
	}
	return n
}

// NewPool creates a pool with capacity frames over file, striped into
// shards (see numShards).
func NewPool(file *pager.File, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	n := numShards(capacity)
	p := &Pool{file: file, shards: make([]*shard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = &shard{
			frames: make([]frame, c),
			index:  make(map[pager.PageID]int, c),
		}
	}
	// Extents are written and freed through the pager directly (segment
	// renders, tail publishes, folds), never through the pool: the pager
	// tells the pool which pages just changed underneath it.
	file.OnInvalidate(p.discard)
	return p, nil
}

// discard forgets pages [start, start+n): their frames describe bytes the
// pager has since rewritten or freed. It is the one seam that keeps the pool
// coherent with extent writes that bypass it — without it a fold's freed
// extent, reused by a later insert, keeps being served from its old frames.
func (p *Pool) discard(start pager.PageID, n uint64) {
	for i := uint64(0); i < n; i++ {
		id := start + pager.PageID(i)
		p.shardOf(id).discard(id)
	}
}

func (sh *shard) discard(id pager.PageID) {
	for {
		sh.mu.Lock()
		fi, ok := sh.index[id]
		if !ok {
			sh.mu.Unlock()
			return
		}
		f := &sh.frames[fi]
		if f.pending != nil {
			// A read raced the rewrite and may install either version: let
			// it land, then drop it.
			ch := f.pending
			sh.mu.Unlock()
			<-ch
			continue
		}
		if f.pins > 0 {
			f.stale = true // a reader still holds the old bytes; unpin drops it
		} else {
			delete(sh.index, id)
			*f = frame{}
		}
		sh.mu.Unlock()
		return
	}
}

// awaitFresh handles a hit on a pending or stale frame: it releases the
// shard lock, waits for the in-flight read (or yields until the last reader
// of the stale bytes unpins) and tells the caller to retry. Caller holds
// sh.mu.
func (sh *shard) awaitFresh(f *frame) bool {
	switch {
	case f.pending != nil:
		ch := f.pending
		sh.mu.Unlock()
		<-ch
	case f.stale:
		sh.mu.Unlock()
		runtime.Gosched()
	default:
		return false
	}
	return true
}

// shardOf maps a page to its shard with a Fibonacci hash, so sequential
// extents spread across stripes.
func (p *Pool) shardOf(id pager.PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15>>47)&p.mask]
}

// Lease pins page id and returns a zero-copy view of its cached payload,
// reading through the pager on a miss. The returned Lease's Data slice is
// the cached frame itself: callers that modify it must MarkDirty before
// Release, and must not retain the slice after Release.
//
// A miss claims a frame and publishes it in the index (pinned, pending)
// *before* dropping the shard lock for the disk read, so the page can
// never be concurrently rewritten and evicted behind the reader's back —
// the interleaving that would otherwise install a stale copy. Concurrent
// accessors of an in-flight page wait for the read instead of duplicating
// it.
func (p *Pool) Lease(id pager.PageID) (Lease, error) {
	sh := p.shardOf(id)
	for {
		sh.mu.Lock()
		if fi, ok := sh.index[id]; ok {
			f := &sh.frames[fi]
			if sh.awaitFresh(f) {
				continue // another goroutine's read is in flight
			}
			sh.hits.Add(1)
			f.pins++
			f.refbit = true
			data := f.data
			sh.mu.Unlock()
			return Lease{sh: sh, id: id, data: data}, nil
		}
		f, err := p.load(sh, id)
		if err != nil {
			return Lease{}, err
		}
		data := f.data
		sh.mu.Unlock()
		return Lease{sh: sh, id: id, data: data}, nil
	}
}

// load is the miss path of Lease and AppendPage. It claims a frame for id
// and publishes it in the index (pinned once, read pending), reads the page
// with the shard lock dropped, and returns the filled frame with sh.mu held
// again. The caller holds sh.mu on entry; on error load returns with it
// released and no frame claimed.
func (p *Pool) load(sh *shard, id pager.PageID) (*frame, error) {
	sh.misses.Add(1)
	fi, err := sh.victim(p.file)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	ch := make(chan struct{})
	sh.frames[fi] = frame{id: id, pins: 1, refbit: true, occupied: true, pending: ch}
	sh.index[id] = fi
	sh.mu.Unlock()

	data, err := p.file.ReadPage(id)

	sh.mu.Lock()
	f := &sh.frames[fi]
	if err != nil {
		delete(sh.index, id)
		*f = frame{}
		sh.mu.Unlock()
		close(ch)
		return nil, err
	}
	// A pending frame is never marked stale (discard waits for the read), so
	// the frame is still this page's.
	f.data, f.pending = data, nil
	close(ch)
	return f, nil
}

// Lease is a pinned, zero-copy view of one cached page.
type Lease struct {
	sh   *shard
	id   pager.PageID
	data []byte
}

// Data returns the cached frame payload. Valid until Release.
func (l Lease) Data() []byte { return l.data }

// Release drops the lease's pin.
func (l Lease) Release() error {
	if l.sh == nil {
		return fmt.Errorf("buffer: Release of zero Lease")
	}
	return l.sh.unpin(l.id)
}

// Get returns the payload of page id, reading it through the pager on a
// miss, and pins the frame. Callers must Unpin when done. The returned
// slice is the cached frame: callers that modify it must call MarkDirty
// before Unpin.
func (p *Pool) Get(id pager.PageID) ([]byte, error) {
	//lint:allow leaselease pin is transferred to the caller, who must Unpin
	l, err := p.Lease(id)
	if err != nil {
		return nil, err
	}
	return l.data, nil
}

// GetForWrite returns a pinned, writable frame for page id without reading
// it from disk (for freshly allocated pages). The frame starts dirty.
func (p *Pool) GetForWrite(id pager.PageID) ([]byte, error) {
	sh := p.shardOf(id)
	for {
		sh.mu.Lock()
		if fi, ok := sh.index[id]; ok {
			f := &sh.frames[fi]
			if sh.awaitFresh(f) {
				continue // wait for the in-flight read before overwriting
			}
			f.pins++
			f.refbit = true
			f.dirty = true
			data := f.data
			sh.mu.Unlock()
			return data, nil
		}
		fi, err := sh.victim(p.file)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		data := make([]byte, p.file.PayloadSize())
		sh.frames[fi] = frame{id: id, data: data, pins: 1, dirty: true, refbit: true, occupied: true}
		sh.index[id] = fi
		sh.mu.Unlock()
		return data, nil
	}
}

// victim finds a free or evictable frame with the CLOCK policy, flushing a
// dirty victim. Caller holds sh.mu. (The dirty flush is the one place page
// I/O happens under a shard lock; it is rare on read-mostly paths and only
// stalls this shard, not the pool.)
func (sh *shard) victim(file *pager.File) (int, error) {
	n := len(sh.frames)
	for spin := 0; spin < 2*n+1; spin++ {
		fi := sh.hand
		sh.hand = (sh.hand + 1) % n
		f := &sh.frames[fi]
		if !f.occupied {
			return fi, nil
		}
		if f.pins > 0 || f.pending != nil {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		if f.dirty {
			if err := file.WritePage(f.id, f.data); err != nil {
				return 0, err
			}
			sh.flushes.Add(1)
		}
		delete(sh.index, f.id)
		sh.evictions.Add(1)
		f.occupied = false
		return fi, nil
	}
	return 0, fmt.Errorf("buffer: %w (%d frames)", errShardPinned, n)
}

// MarkDirty flags the page's frame as modified. The page must be resident
// and pinned.
func (p *Pool) MarkDirty(id pager.PageID) error {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fi, ok := sh.index[id]
	if !ok {
		return fmt.Errorf("buffer: MarkDirty on non-resident page %d", id)
	}
	sh.frames[fi].dirty = true
	return nil
}

// Unpin releases one pin on page id.
func (p *Pool) Unpin(id pager.PageID) error {
	return p.shardOf(id).unpin(id)
}

func (sh *shard) unpin(id pager.PageID) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fi, ok := sh.index[id]
	if !ok {
		return fmt.Errorf("buffer: Unpin on non-resident page %d", id)
	}
	f := &sh.frames[fi]
	if f.pins == 0 {
		return fmt.Errorf("buffer: Unpin on unpinned page %d", id)
	}
	sh.drop(f)
	return nil
}

// drop releases one pin on a pinned frame, forgetting the frame when it was
// the last pin on stale bytes. Caller holds sh.mu.
func (sh *shard) drop(f *frame) {
	f.pins--
	if f.stale && f.pins == 0 {
		delete(sh.index, f.id)
		*f = frame{}
	}
}

// FlushAll writes every unpinned dirty frame back to the pager (without
// evicting). A pinned dirty frame is still being written by its holder —
// flushing it would persist a torn page — and is flushed by a later call or
// by eviction once unpinned.
func (p *Pool) FlushAll() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.occupied && f.dirty && f.pins == 0 {
				if err := p.file.WritePage(f.id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
				sh.flushes.Add(1)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Invalidate drops every unpinned frame (flushing dirty ones), so the next
// access is a cold read. Experiments call this between queries to reproduce
// the paper's cold-cache page counts. It fails if any frame is pinned.
func (p *Pool) Invalidate() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if !f.occupied {
				continue
			}
			if f.pins > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("buffer: Invalidate with pinned page %d", f.id)
			}
			if f.dirty {
				if err := p.file.WritePage(f.id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				sh.flushes.Add(1)
			}
			delete(sh.index, f.id)
			f.occupied = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// Resident reports whether page id is cached (for tests).
func (p *Pool) Resident(id pager.PageID) bool {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.index[id]
	return ok
}

// ReadPage returns a copy of the page payload, going through the cache. It
// adapts the pool to segment.PageSource so table scans can run warm.
func (p *Pool) ReadPage(id pager.PageID) ([]byte, error) {
	n := p.file.PayloadSize()
	return p.AppendPage(make([]byte, 0, n), id, 0, n)
}

// AppendPage appends bytes [lo, hi) of page id's payload to dst, going
// through the cache; it is the pool's segment.PageAppender, the scan path's
// fetch. A hit copies the range under the shard lock, so it takes no pin
// and leaves nothing to release. A miss reads the page into a claimed frame
// as Lease does, then copies the range and drops the claim's pin in the
// same critical section. If the page's shard is momentarily out of
// evictable frames (every frame pinned by concurrent leases), the read
// degrades to an uncached pager read instead of failing the scan. On error
// nothing is appended.
func (p *Pool) AppendPage(dst []byte, id pager.PageID, lo, hi int) ([]byte, error) {
	sh := p.shardOf(id)
	for {
		sh.mu.Lock()
		if fi, ok := sh.index[id]; ok {
			f := &sh.frames[fi]
			if sh.awaitFresh(f) {
				continue // another goroutine's read is in flight
			}
			sh.hits.Add(1)
			f.refbit = true
			dst = append(dst, f.data[lo:hi]...)
			sh.mu.Unlock()
			return dst, nil
		}
		f, err := p.load(sh, id)
		if err == nil {
			dst = append(dst, f.data[lo:hi]...)
			sh.drop(f)
			sh.mu.Unlock()
			return dst, nil
		}
		if !errors.Is(err, errShardPinned) {
			return dst, err
		}
		page, err := p.file.ReadPage(id)
		if err != nil {
			return dst, err
		}
		return append(dst, page[lo:hi]...), nil
	}
}

// PayloadSize returns the underlying file's page payload size.
func (p *Pool) PayloadSize() int { return p.file.PayloadSize() }

// Stats returns a snapshot of the counters aggregated over shards.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Flushes += sh.flushes.Load()
	}
	return s
}

// Capacity returns the total number of frames across shards.
func (p *Pool) Capacity() int {
	n := 0
	for _, sh := range p.shards {
		n += len(sh.frames)
	}
	return n
}

// Shards returns the number of lock stripes (for tests and diagnostics).
func (p *Pool) Shards() int { return len(p.shards) }
