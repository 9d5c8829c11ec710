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
	frames := 0
	for _, sh := range p.shards {
		frames += len(sh.frames)
	}
	if frames != 100 {
		t.Errorf("%d frames, want 100", frames)
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
	l2, err := p.Lease(start) // same frame while leased
	if err != nil {
		t.Fatal(err)
	}
	if &l.Data()[0] != &l2.Data()[0] {
		t.Error("two leases of one page should expose the same frame memory")
	}
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if n := p.Pinned(); n != 0 {
		t.Errorf("all leases released, %d pins left", n)
	}
}

// TestReadPage pins the probes' page source: a miss and a hit each return
// the page's payload, a hit reads nothing from the pager, neither leaves a
// pin behind, and a shard whose every frame is pinned degrades to an
// uncached read.
func TestReadPage(t *testing.T) {
	p, f, start := newPoolT(t, 1, 4)
	if err := f.WriteRun(start, []byte{7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	read := func(wantReads uint64) {
		t.Helper()
		before := f.Stats().PageReads
		got, err := p.ReadPage(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:4], []byte{7, 8, 9, 10}) || len(got) != f.PayloadSize() {
			t.Fatalf("ReadPage = %v..., %d bytes; want [7 8 9 10]..., %d bytes", got[:4], len(got), f.PayloadSize())
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
	if n := p.Pinned(); n != 0 {
		t.Fatalf("ReadPage left %d pins", n)
	}
	// The one frame pinned by a lease: another page still reads, uncached.
	l, err := p.Lease(start + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	got, err := p.ReadPage(start + 2)
	if err != nil {
		t.Fatalf("all-pinned shard: %v", err)
	}
	if got[0] != 2 || p.Resident(start+2) {
		t.Fatalf("degraded read = %v, resident %v", got[:1], p.Resident(start+2))
	}
}

// TestShardedPoolStress hammers a multi-shard pool from many goroutines
// with reads (Lease/ReadPage) and rewrites of private pages through the pager
// (which the pool hears of through OnInvalidate).
// Run under -race. Afterwards it checks stat consistency (every access is
// exactly one hit or one miss), that no pins leaked, and that no read ever
// saw a private page older than its owner's last rewrite.
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
	for i := 0; i < readPages+workers*writePages; i++ {
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
			var last [writePages]byte // what each private page holds now
			for i := range last {
				last[i] = byte(readPages + w*writePages + i)
			}
			for i := 0; i < iters; i++ {
				switch r.Intn(10) {
				case 0: // rewrite a private page, then read it back
					k := r.Intn(writePages)
					last[k] = byte(i)
					if err := f.WriteRun(mine+pager.PageID(k), []byte{last[k]}); err != nil {
						errs <- err
						return
					}
					fallthrough
				case 1: // read a private page: never older than the last rewrite
					k := r.Intn(writePages)
					d, err := p.ReadPage(mine + pager.PageID(k))
					if err != nil {
						errs <- err
						return
					}
					if d[0] != last[k] {
						errs <- fmt.Errorf("private page %d: read %d after writing %d", mine+pager.PageID(k), d[0], last[k])
						return
					}
					accesses[w]++
				case 2, 3: // copied page, no pin
					id := start + pager.PageID(r.Intn(readPages))
					d, err := p.ReadPage(id)
					if err != nil {
						errs <- err
						return
					}
					if d[0] != byte(id-start) {
						errs <- fmt.Errorf("page %d: bad content %d", id, d[0])
						return
					}
					accesses[w]++
				default: // zero-copy lease
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
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every read access (Lease, ReadPage) counts exactly one hit or miss.
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
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
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
				l, err := p.Lease(start)
				if err != nil {
					errs <- err
					return
				}
				if l.Data()[0] != 0 {
					errs <- fmt.Errorf("bad content %d", l.Data()[0])
				}
				errs <- l.Release()
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
		if n := p.Pinned(); n != 0 {
			t.Fatalf("round %d: %d pins leaked", round, n)
		}
	}
}
