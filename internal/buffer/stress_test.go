package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rodentstore/internal/pager"
)

func TestNumShards(t *testing.T) {
	cases := map[int]int{1: 1, 8: 1, 31: 1, 32: 2, 64: 4, 128: 8, 256: 16, 512: 16, 4096: 16}
	for capacity, want := range cases {
		if got := numShards(capacity); got != want {
			t.Errorf("numShards(%d) = %d, want %d", capacity, got, want)
		}
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	p, _, _ := newPoolT(t, 100, 4)
	if p.Capacity() != 100 {
		t.Errorf("Capacity = %d, want 100", p.Capacity())
	}
	if p.Shards() != numShards(100) {
		t.Errorf("Shards = %d, want %d", p.Shards(), numShards(100))
	}
}

func TestLeaseZeroCopy(t *testing.T) {
	p, _, start := newPoolT(t, 8, 4)
	l, err := p.Lease(start)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Get(start) // same frame while leased
	if err != nil {
		t.Fatal(err)
	}
	if &l.Data()[0] != &d[0] {
		t.Error("Lease and Get should expose the same frame memory")
	}
	if err := p.Unpin(start); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Errorf("all pins released, Invalidate should succeed: %v", err)
	}
	var zero Lease
	if err := zero.Release(); err == nil {
		t.Error("zero Lease Release should error")
	}
}

// TestAppendPage pins the scan fetch: a miss and a hit each append exactly
// the asked range onto dst, a hit reads nothing from the pager, neither
// leaves a pin behind, and a shard whose every frame is pinned degrades to
// an uncached read.
func TestAppendPage(t *testing.T) {
	p, f, start := newPoolT(t, 1, 4)
	if err := f.WriteRun(start, []byte{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	read := func(wantReads uint64) {
		t.Helper()
		before := f.Stats().PageReads
		got, err := p.AppendPage([]byte{1}, start, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{1, 8, 9}) {
			t.Fatalf("AppendPage = %v, want [1 8 9]", got)
		}
		if reads := f.Stats().PageReads - before; reads != wantReads {
			t.Fatalf("%d pager reads, want %d", reads, wantReads)
		}
	}
	read(1) // miss
	read(0) // hit
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want one hit and one miss", s)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatalf("AppendPage left a pin: %v", err)
	}
	// The one frame pinned by a lease: another page still reads, uncached.
	l, err := p.Lease(start + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	got, err := p.AppendPage(nil, start+2, 0, 1)
	if err != nil {
		t.Fatalf("all-pinned shard: %v", err)
	}
	if got[0] != 2 || p.Resident(start+2) {
		t.Fatalf("degraded read = %v, resident %v", got, p.Resident(start+2))
	}
}

// TestShardedPoolStress hammers a multi-shard pool from many goroutines
// with reads (Get/Lease/AppendPage), private-page writes (GetForWrite + MarkDirty),
// and periodic FlushAll. Run under -race. Afterwards it checks stat
// consistency (every access is exactly one hit or one miss), that no pins
// leaked, and that all written data survived eviction traffic.
func TestShardedPoolStress(t *testing.T) {
	const (
		readPages  = 96
		workers    = 8
		iters      = 1500
		writePages = 4 // per worker, private
	)
	f, err := pager.Create(t.TempDir()+"/stress.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start, err := f.AllocateRun(readPages + workers*writePages)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readPages; i++ {
		if err := f.WritePage(start+pager.PageID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity far below the working set forces steady eviction.
	p, err := NewPool(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() < 2 {
		t.Fatalf("want a sharded pool, got %d shards", p.Shards())
	}

	var accesses [workers]uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			mine := start + pager.PageID(readPages+w*writePages)
			for i := 0; i < iters; i++ {
				switch r.Intn(10) {
				case 0: // write a private page
					id := mine + pager.PageID(r.Intn(writePages))
					d, err := p.GetForWrite(id)
					if err != nil {
						errs <- err
						return
					}
					d[0] = byte(w)
					d[1] = byte(i)
					if err := p.MarkDirty(id); err != nil {
						errs <- err
						return
					}
					if err := p.Unpin(id); err != nil {
						errs <- err
						return
					}
				case 1: // zero-copy lease
					id := start + pager.PageID(r.Intn(readPages))
					l, err := p.Lease(id)
					if err != nil {
						errs <- err
						return
					}
					if l.Data()[0] != byte(id-start) {
						errs <- fmt.Errorf("page %d: bad content %d", id, l.Data()[0])
						l.Release()
						return
					}
					if err := l.Release(); err != nil {
						errs <- err
						return
					}
					accesses[w]++
				case 2:
					if err := p.FlushAll(); err != nil {
						errs <- err
						return
					}
				case 3: // copied range, no pin
					id := start + pager.PageID(r.Intn(readPages))
					d, err := p.AppendPage(nil, id, 0, 1)
					if err != nil {
						errs <- err
						return
					}
					if d[0] != byte(id-start) {
						errs <- fmt.Errorf("page %d: bad content %d", id, d[0])
						return
					}
					accesses[w]++
				default: // pinned read
					id := start + pager.PageID(r.Intn(readPages))
					d, err := p.Get(id)
					if err != nil {
						errs <- err
						return
					}
					if d[0] != byte(id-start) {
						errs <- fmt.Errorf("page %d: bad content %d", id, d[0])
						p.Unpin(id)
						return
					}
					if err := p.Unpin(id); err != nil {
						errs <- err
						return
					}
					accesses[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Read accesses (Get, Lease, AppendPage) each count exactly one hit or miss;
	// GetForWrite takes neither counter.
	var reads uint64
	for _, a := range accesses {
		reads += a
	}
	s := p.Stats()
	if s.Hits+s.Misses != reads {
		t.Errorf("stat consistency: hits %d + misses %d != reads %d", s.Hits, s.Misses, reads)
	}
	if s.Evictions == 0 {
		t.Error("working set exceeds capacity; expected evictions")
	}

	// No lost pins: Invalidate flushes and drops everything or errors on a
	// leaked pin.
	if err := p.Invalidate(); err != nil {
		t.Fatalf("pins leaked: %v", err)
	}
	// Every worker's last private write must have survived write-back.
	for w := 0; w < workers; w++ {
		for i := 0; i < writePages; i++ {
			id := start + pager.PageID(readPages+w*writePages+i)
			d, err := f.ReadPage(id)
			if err != nil {
				continue // page never written by this worker's random walk
			}
			if d[0] != byte(w) {
				t.Errorf("page %d: owner byte %d, want %d", id, d[0], w)
			}
		}
	}
}

// TestConcurrentMissSamePage drives many goroutines at the same cold page:
// the insert race must resolve to one frame, with every access counted as
// exactly one hit or miss.
func TestConcurrentMissSamePage(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, _, start := newPoolT(t, 16, 8)
		const n = 8
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := p.Get(start)
				if err != nil {
					errs <- err
					return
				}
				if d[0] != 0 {
					errs <- fmt.Errorf("bad content %d", d[0])
				}
				errs <- p.Unpin(start)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		s := p.Stats()
		if s.Hits+s.Misses != n {
			t.Fatalf("round %d: hits %d + misses %d != %d", round, s.Hits, s.Misses, n)
		}
		// The pending-frame protocol dedups the in-flight read: exactly one
		// goroutine pays the miss, everyone else waits and hits.
		if s.Misses != 1 {
			t.Fatalf("round %d: %d misses, want 1 (read not deduplicated)", round, s.Misses)
		}
		if err := p.Invalidate(); err != nil {
			t.Fatalf("round %d: pins leaked: %v", round, err)
		}
	}
}
