package table

import (
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
	"rodentstore/internal/vec"
)

// chunkCache is the engine's one cache, shared by every layout: decoded
// column chunks, so a warm scan neither fetches nor decodes a block it
// decoded before. An entry is one column of one block of one segment,
// keyed by the segment's extent, and holds an immutable vector. A segment's
// blocks never change while its extent is allocated, so the only way an
// entry goes stale is its extent being freed or rewritten, and the pager
// reports both (pager.File.OnInvalidate).
//
// Entries are charged by decoded bytes against a fixed budget and evicted
// with CLOCK (second chance). Readers read an entry in place
// (vec.Batch.Borrow), copy it out (vec.Vector.CopyFrom) or gather rows from
// it, and hold it no longer than one block. Eviction and invalidation only
// drop the cache's reference, and put fills every entry's buffers fresh, so
// a reader's entry stays intact however long its block takes.
type chunkCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	index  map[chunkKey]*chunk
	// exts counts the entries of each extent start, so an invalidation
	// finds out without a sweep whether it names anything cached.
	exts map[pager.PageID]int
	ring []*chunk // CLOCK order
	hand int
	// gen moves on every invalidation, under mu. A decode that started
	// before one may have read the bytes it dropped: put refuses it.
	gen atomic.Uint64

	hits, misses, evictions uint64 // guarded by mu
}

// chunkKey names one column of one block of the segment whose extent
// starts at ext.
type chunkKey struct {
	ext   pager.PageID
	block int
	col   int
}

type chunk struct {
	key  chunkKey
	v    vec.Vector
	size int64
	ref  bool // CLOCK second-chance bit
}

// chunkOverhead is what an entry costs beside its vector's rows: the entry,
// its index slot and its ring slot.
const chunkOverhead = 256

// newChunkCache makes a cache of budget bytes over file and registers it to
// hear of every extent the pager rewrites or frees.
func newChunkCache(file *pager.File, budget int64) *chunkCache {
	c := &chunkCache{budget: budget, index: make(map[chunkKey]*chunk), exts: make(map[pager.PageID]int)}
	file.OnInvalidate(c.invalidate)
	return c
}

// generation is read before a block's first fetch and handed to put.
func (c *chunkCache) generation() uint64 { return c.gen.Load() }

// get returns the cached vector for k, or nil. The vector is immutable:
// callers read, copy or gather from it for one block and never change it.
func (c *chunkCache) get(k chunkKey) *vec.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.index[k]
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	e.ref = true
	return &e.v
}

// put caches a copy of v, decoded from bytes fetched at generation gen,
// evicting as the budget needs. It does nothing when an invalidation has
// run since gen, when k is already cached, or when v alone exceeds the
// budget.
func (c *chunkCache) put(k chunkKey, gen uint64, v *vec.Vector) {
	size := int64(v.Size()) + chunkOverhead
	if size > c.budget {
		return
	}
	e := &chunk{key: k, size: size, ref: true}
	e.v.CopyFrom(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen.Load() || c.index[k] != nil {
		return
	}
	for c.used+size > c.budget {
		c.evict()
	}
	c.index[k] = e
	c.exts[k.ext]++
	c.ring = append(c.ring, e)
	c.used += size
}

// evict drops the first entry the CLOCK hand finds with its second chance
// spent. Caller holds mu, and the ring is not empty.
func (c *chunkCache) evict() {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		last := len(c.ring) - 1
		c.ring[c.hand], c.ring[last] = c.ring[last], nil
		c.ring = c.ring[:last]
		c.forget(e)
		c.evictions++
		return
	}
}

// forget removes e from the index and the accounting. Caller holds mu.
func (c *chunkCache) forget(e *chunk) {
	delete(c.index, e.key)
	if c.exts[e.key.ext]--; c.exts[e.key.ext] == 0 {
		delete(c.exts, e.key.ext)
	}
	c.used -= e.size
}

// invalidate drops every entry of an extent that starts in [start,
// start+n): the pager just freed or rewrote those pages. Extents are
// written and freed whole, so an entry's extent start is all it takes.
func (c *chunkCache) invalidate(start pager.PageID, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	in := func(ext pager.PageID) bool { return ext >= start && uint64(ext-start) < n }
	hit := false
	if uint64(len(c.exts)) < n {
		for ext := range c.exts {
			if hit = in(ext); hit {
				break
			}
		}
	} else {
		for i := uint64(0); i < n && !hit; i++ {
			_, hit = c.exts[start+pager.PageID(i)]
		}
	}
	if hit {
		c.sweep(func(e *chunk) bool { return in(e.key.ext) })
	}
}

// clear drops every entry, so the next reads fetch and decode cold.
func (c *chunkCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	c.sweep(func(*chunk) bool { return true })
}

// sweep drops the entries drop names. Caller holds mu.
func (c *chunkCache) sweep(drop func(*chunk) bool) {
	kept := c.ring[:0]
	for _, e := range c.ring {
		if drop(e) {
			c.forget(e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(c.ring[len(kept):])
	c.ring = kept
	c.hand = 0
}

// cacheStats is a snapshot of the cache's counters and footprint.
type cacheStats struct {
	hits, misses, evictions uint64
	entries                 int
	bytes                   int64
}

func (c *chunkCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{hits: c.hits, misses: c.misses, evictions: c.evictions, entries: len(c.ring), bytes: c.used}
}
