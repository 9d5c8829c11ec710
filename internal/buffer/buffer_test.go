package buffer

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rodentstore/internal/pager"
)

func newPoolT(t *testing.T, frames, pages int) (*Pool, *pager.File, pager.PageID) {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "pool.rdnt"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	start, err := f.AllocateRun(uint64(pages))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := f.WritePage(start+pager.PageID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(f, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p, f, start
}

func TestNewPoolRejectsZeroCapacity(t *testing.T) {
	if _, err := NewPool(nil, 0); err == nil {
		t.Error("expected error")
	}
}

// Resident reports whether page id is cached.
func (p *Pool) Resident(id pager.PageID) bool {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.index[id]
	return ok
}

// touch leases page id and releases it at once.
func touch(t *testing.T, p *Pool, id pager.PageID) {
	t.Helper()
	l, err := p.Lease(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestGetCachesPages(t *testing.T) {
	p, f, start := newPoolT(t, 4, 8)
	l, err := p.Lease(start)
	if err != nil {
		t.Fatal(err)
	}
	if l.Data()[0] != 0 {
		t.Errorf("wrong content: %d", l.Data()[0])
	}
	l.Release()
	before := f.Stats().PageReads
	if _, err := p.ReadPage(start); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().PageReads; got != before {
		t.Errorf("second read should hit cache: reads %d -> %d", before, got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	l, err := p.Lease(start)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	for i := 1; i < 6; i++ {
		touch(t, p, start+pager.PageID(i))
	}
	if !p.Resident(start) {
		t.Error("pinned page was evicted")
	}
}

func TestAllPinnedFails(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	for i := 0; i < 2; i++ {
		l, err := p.Lease(start + pager.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
	}
	if l, err := p.Lease(start + 2); err == nil {
		l.Release()
		t.Error("expected error when all frames pinned")
	}
}

func TestUnpinErrors(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	if err := (Lease{sh: p.shardOf(start), id: start}).Release(); err == nil {
		t.Error("expected error releasing non-resident page")
	}
	l, err := p.Lease(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err == nil {
		t.Error("expected error releasing unpinned page")
	}
	var zero Lease
	if err := zero.Release(); err == nil {
		t.Error("zero Lease Release should error")
	}
}

// TestPoolNeverWritesPages drives every pool path (hits, misses,
// eviction, the uncached fallback of a fully pinned shard) and checks the pool is a read-only cache: it serves the
// bytes on disk and writes no page.
func TestPoolNeverWritesPages(t *testing.T) {
	const frames, pages = 2, 8
	p, f, start := newPoolT(t, frames, pages)
	f.ResetStats()
	check := func(i int, page []byte) {
		t.Helper()
		if page[0] != byte(i) {
			t.Fatalf("page %d: got byte %d", i, page[0])
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < pages; i++ {
			l, err := p.Lease(start + pager.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			check(i, l.Data())
			if err := l.Release(); err != nil {
				t.Fatal(err)
			}
			page, err := p.ReadPage(start + pager.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			check(i, page)
		}
	}
	var held []Lease
	for i := 0; i < frames; i++ {
		l, err := p.Lease(start + pager.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	page, err := p.ReadPage(start + frames)
	if err != nil {
		t.Fatalf("read with every frame pinned: %v", err)
	}
	check(frames, page)
	for _, l := range held {
		if err := l.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Evictions == 0 {
		t.Errorf("workload evicted nothing: %+v", s)
	}
	if w := f.Stats().PageWrites; w != 0 {
		t.Errorf("pool wrote %d pages", w)
	}
}

// TestStatsCountEvictions checks the counters on a one-shard pool: each
// distinct page past capacity is a miss that evicts one frame, and a
// resident page is a hit.
func TestStatsCountEvictions(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	for i := 0; i < 5; i++ {
		touch(t, p, start+pager.PageID(i))
	}
	touch(t, p, start+4)
	if s := p.Stats(); s != (Stats{Hits: 1, Misses: 5, Evictions: 3}) {
		t.Errorf("stats: %+v, want 1 hit, 5 misses, 3 evictions", s)
	}
}

func TestClockSecondChance(t *testing.T) {
	// A frequently touched page should survive a scan of cold pages.
	p, _, start := newPoolT(t, 3, 16)
	hot := start
	touch(t, p, hot)
	for i := 1; i < 16; i++ {
		touch(t, p, start+pager.PageID(i))
		// Re-touch the hot page so its refbit stays set.
		touch(t, p, hot)
	}
	if !p.Resident(hot) {
		t.Error("hot page evicted despite constant touches")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p, _, start := newPoolT(t, 8, 32)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				id := start + pager.PageID(r.Intn(32))
				if i%2 == 0 {
					if _, err := p.ReadPage(id); err != nil {
						done <- err
						return
					}
					continue
				}
				l, err := p.Lease(id)
				if err != nil {
					done <- err
					return
				}
				_ = l.Data()[0]
				if err := l.Release(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("accounting mismatch: %+v", s)
	}
}

// TestPoolDropsRewrittenAndFreedExtents pins the pool's coherence seam:
// extents are written and freed through the pager, never through the pool,
// so the pool must forget a page the moment the pager rewrites or frees it —
// including a page a reader still has pinned, which is dropped on its last
// unpin and serves nobody new in between.
func TestPoolDropsRewrittenAndFreedExtents(t *testing.T) {
	p, f, start := newPoolT(t, 8, 4)
	read := func(id pager.PageID) byte {
		t.Helper()
		l, err := p.Lease(id)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
		return l.Data()[0]
	}
	if got := read(start); got != 0 {
		t.Fatalf("page %d: %d", start, got)
	}
	// Rewrite through the pager: the cached frame must not survive.
	if err := f.WriteRun(start, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if p.Resident(start) {
		t.Fatal("rewritten page still resident")
	}
	if got := read(start); got != 42 {
		t.Fatalf("pool served stale bytes after WriteRun: %d", got)
	}
	// A pinned frame goes stale instead of vanishing under its reader.
	pinned, err := p.Lease(start + 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteRun(start+1, []byte{43}); err != nil {
		t.Fatal(err)
	}
	if pinned.Data()[0] != 1 {
		t.Fatal("pinned reader's bytes changed underneath it")
	}
	if err := pinned.Release(); err != nil {
		t.Fatal(err)
	}
	if p.Resident(start + 1) {
		t.Fatal("stale frame survived its last unpin")
	}
	if got := read(start + 1); got != 43 {
		t.Fatalf("pool served stale bytes after pinned rewrite: %d", got)
	}
	// Free drops frames too.
	read(start + 2)
	if err := f.FreeRun(start+2, 2); err != nil {
		t.Fatal(err)
	}
	if p.Resident(start+2) || p.Resident(start+3) {
		t.Fatal("freed pages still resident")
	}
}
