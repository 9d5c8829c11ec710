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

func TestGetCachesPages(t *testing.T) {
	p, f, start := newPoolT(t, 4, 8)
	d1, err := p.Get(start)
	if err != nil {
		t.Fatal(err)
	}
	if d1[0] != 0 {
		t.Errorf("wrong content: %d", d1[0])
	}
	p.Unpin(start)
	before := f.Stats().PageReads
	if _, err := p.Get(start); err != nil {
		t.Fatal(err)
	}
	p.Unpin(start)
	if got := f.Stats().PageReads; got != before {
		t.Errorf("second Get should hit cache: reads %d -> %d", before, got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, f, start := newPoolT(t, 2, 8)
	// Dirty page 0.
	d, _ := p.Get(start)
	d[0] = 0xaa
	p.MarkDirty(start)
	p.Unpin(start)
	// Touch enough pages to evict page 0 (capacity 2).
	for i := 1; i < 6; i++ {
		if _, err := p.Get(start + pager.PageID(i)); err != nil {
			t.Fatal(err)
		}
		p.Unpin(start + pager.PageID(i))
	}
	if p.Resident(start) {
		t.Fatal("page 0 should have been evicted")
	}
	got, err := f.ReadPage(start)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xaa {
		t.Error("dirty page not written back on eviction")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	if _, err := p.Get(start); err != nil { // pinned, never unpinned
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if _, err := p.Get(start + pager.PageID(i)); err != nil {
			t.Fatal(err)
		}
		p.Unpin(start + pager.PageID(i))
	}
	if !p.Resident(start) {
		t.Error("pinned page was evicted")
	}
}

func TestAllPinnedFails(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	p.Get(start)
	p.Get(start + 1)
	if _, err := p.Get(start + 2); err == nil {
		t.Error("expected error when all frames pinned")
	}
}

func TestUnpinErrors(t *testing.T) {
	p, _, start := newPoolT(t, 2, 8)
	if err := p.Unpin(start); err == nil {
		t.Error("expected error unpinning non-resident page")
	}
	p.Get(start)
	p.Unpin(start)
	if err := p.Unpin(start); err == nil {
		t.Error("expected error unpinning unpinned page")
	}
	if err := p.MarkDirty(start + 5); err == nil {
		t.Error("expected error marking non-resident page")
	}
}

func TestGetForWrite(t *testing.T) {
	p, f, _ := newPoolT(t, 4, 2)
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.GetForWrite(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(d, "fresh page")
	p.Unpin(id)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "fresh page" {
		t.Errorf("got %q", got[:10])
	}
}

func TestInvalidate(t *testing.T) {
	p, f, start := newPoolT(t, 4, 4)
	d, _ := p.Get(start)
	d[0] = 0x55
	p.MarkDirty(start)
	p.Unpin(start)
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Resident(start) {
		t.Error("page still resident after Invalidate")
	}
	got, _ := f.ReadPage(start)
	if got[0] != 0x55 {
		t.Error("dirty page lost by Invalidate")
	}
	// Invalidate with a pinned page must fail.
	p.Get(start)
	if err := p.Invalidate(); err == nil {
		t.Error("expected error invalidating with pinned page")
	}
	p.Unpin(start)
}

func TestClockSecondChance(t *testing.T) {
	// A frequently touched page should survive a scan of cold pages.
	p, _, start := newPoolT(t, 3, 16)
	hot := start
	p.Get(hot)
	p.Unpin(hot)
	for i := 1; i < 16; i++ {
		p.Get(start + pager.PageID(i))
		p.Unpin(start + pager.PageID(i))
		// Re-touch the hot page so its refbit stays set.
		p.Get(hot)
		p.Unpin(hot)
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
				d, err := p.Get(id)
				if err != nil {
					done <- err
					return
				}
				_ = d[0]
				if err := p.Unpin(id); err != nil {
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
