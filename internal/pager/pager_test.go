package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rodentstore/internal/vfs"
)

func newFile(t *testing.T, pageSize int) *File {
	t.Helper()
	p, err := Create(filepath.Join(t.TempDir(), "test.rdnt"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCreateRejectsBadPageSize(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "a"), 64); err == nil {
		t.Error("expected error for tiny page size")
	}
	if _, err := Create(filepath.Join(dir, "b"), MaxPageSize*2); err == nil {
		t.Error("expected error for huge page size")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	p := newFile(t, 1024)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello rodent")
	if err := p.WritePage(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(payload)]) != string(payload) {
		t.Errorf("payload mismatch: %q", got[:len(payload)])
	}
	if len(got) != p.PayloadSize() {
		t.Errorf("payload length %d, want %d", len(got), p.PayloadSize())
	}
}

func TestPayloadTooLarge(t *testing.T) {
	p := newFile(t, 1024)
	id, _ := p.Allocate()
	big := make([]byte, p.PayloadSize()+1)
	if err := p.WritePage(id, big); err == nil {
		t.Error("expected error for oversized payload")
	}
}

func TestReadUnwrittenPageFails(t *testing.T) {
	p := newFile(t, 1024)
	id, _ := p.Allocate()
	if _, err := p.ReadPage(id); err == nil {
		t.Error("expected checksum error reading unwritten page")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	p := newFile(t, 1024)
	if _, err := p.ReadPage(InvalidPage); err == nil {
		t.Error("expected error reading page 0")
	}
	if _, err := p.ReadPage(999); err == nil {
		t.Error("expected error reading unallocated page")
	}
	if err := p.WritePage(999, nil); err == nil {
		t.Error("expected error writing unallocated page")
	}
}

func TestAllocateRunContiguous(t *testing.T) {
	p := newFile(t, 1024)
	a, err := p.AllocateRun(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AllocateRun(5)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+10 {
		t.Errorf("second run should follow first: a=%d b=%d", a, b)
	}
	if _, err := p.AllocateRun(0); err == nil {
		t.Error("expected error for zero-length run")
	}
}

func TestFreeListReuse(t *testing.T) {
	p := newFile(t, 1024)
	a, _ := p.AllocateRun(10)
	if err := p.FreeRun(a, 10); err != nil {
		t.Fatal(err)
	}
	b, _ := p.AllocateRun(4)
	if b != a {
		t.Errorf("allocation should reuse freed extent: got %d want %d", b, a)
	}
	c, _ := p.AllocateRun(6)
	if c != a+4 {
		t.Errorf("remainder reuse: got %d want %d", c, a+4)
	}
}

func TestFreeCoalescing(t *testing.T) {
	p := newFile(t, 1024)
	a, _ := p.AllocateRun(12)
	p.FreeRun(a, 4)
	p.FreeRun(a+8, 4)
	p.FreeRun(a+4, 4) // middle: all three must coalesce
	b, _ := p.AllocateRun(12)
	if b != a {
		t.Errorf("coalesced extent should satisfy full run: got %d want %d", b, a)
	}
}

func TestNumPages(t *testing.T) {
	p := newFile(t, 1024)
	if n := p.NumPages(); n != 0 {
		t.Errorf("fresh file NumPages = %d", n)
	}
	a, _ := p.AllocateRun(7)
	if n := p.NumPages(); n != 7 {
		t.Errorf("after alloc NumPages = %d", n)
	}
	p.FreeRun(a, 3)
	if n := p.NumPages(); n != 4 {
		t.Errorf("after free NumPages = %d", n)
	}
}

func TestStatsAndSeeks(t *testing.T) {
	p := newFile(t, 1024)
	start, _ := p.AllocateRun(10)
	for i := uint64(0); i < 10; i++ {
		if err := p.WritePage(start+PageID(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetStats()
	// Sequential scan: 10 reads, 1 seek (the initial positioning).
	for i := uint64(0); i < 10; i++ {
		if _, err := p.ReadPage(start + PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.PageReads != 10 {
		t.Errorf("PageReads = %d, want 10", s.PageReads)
	}
	if s.Seeks != 1 {
		t.Errorf("sequential scan Seeks = %d, want 1", s.Seeks)
	}
	p.ResetStats()
	// Strided access: every read is a seek.
	for _, off := range []uint64{0, 5, 2, 9, 4} {
		p.ReadPage(start + PageID(off))
	}
	if s := p.Stats(); s.Seeks != 5 {
		t.Errorf("random access Seeks = %d, want 5", s.Seeks)
	}
}

func TestMetaPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.rdnt")
	p, err := Create(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	p.MetaSet(3, 0xdeadbeef)
	p.MetaSet(0, 42)
	id, _ := p.Allocate()
	p.WritePage(id, []byte("persist me"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.MetaGet(3) != 0xdeadbeef || q.MetaGet(0) != 42 {
		t.Error("meta slots not persisted")
	}
	if q.PageSize() != 2048 {
		t.Errorf("page size not persisted: %d", q.PageSize())
	}
	got, err := q.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "persist me" {
		t.Error("page content not persisted")
	}
}

func TestFreeListPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.rdnt")
	p, _ := Create(path, 1024)
	a, _ := p.AllocateRun(20)
	p.FreeRun(a, 20)
	p.Close()

	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	b, _ := q.AllocateRun(20)
	if b != a {
		t.Errorf("free list not persisted: got %d want %d", b, a)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("expected error opening non-RodentStore file")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("expected error opening missing file")
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.rdnt")
	p, _ := Create(path, 1024)
	id, _ := p.Allocate()
	p.WritePage(id, []byte("important data"))
	p.Close()

	// Flip one byte in the page payload.
	raw, _ := os.ReadFile(path)
	raw[int(id)*1024+100] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.ReadPage(id); err == nil {
		t.Error("expected checksum error on corrupted page")
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	p := newFile(t, 1024)
	const pages = 64
	start, _ := p.AllocateRun(pages)
	for i := 0; i < pages; i++ {
		p.WritePage(start+PageID(i), []byte{byte(i)})
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				id := start + PageID(r.Intn(pages))
				if r.Intn(2) == 0 {
					if err := p.WritePage(id, []byte{byte(i)}); err != nil {
						done <- err
						return
					}
				} else {
					if _, err := p.ReadPage(id); err != nil {
						done <- err
						return
					}
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
}

func TestFreeListBoundedByHeaderPage(t *testing.T) {
	// A fragmented free pattern (free every other extent, so nothing
	// coalesces) must never grow the persisted free list past what the
	// header page can hold: overflow leaks (tracked in stats) instead of
	// corrupting the header. Regression test — ingest workloads that merge
	// many tail batches free hundreds of non-adjacent extents.
	p := newFile(t, MinPageSize)
	const extents = 200
	starts := make([]PageID, extents)
	for i := range starts {
		id, err := p.AllocateRun(2)
		if err != nil {
			t.Fatal(err)
		}
		starts[i] = id
	}
	for i := 0; i < extents; i += 2 {
		if err := p.FreeRun(starts[i], 2); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if got, limit := len(p.free), p.freeListCap(); got > limit {
		t.Errorf("free list %d entries exceeds header capacity %d", got, limit)
	}
	if p.Stats().LeakedPages == 0 {
		t.Error("overflowing frees should leak (tracked), not vanish")
	}
	// The header must survive a sync + reopen round trip.
	path := p.path
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got, limit := len(p2.free), p2.freeListCap(); got > limit || got == 0 {
		t.Errorf("reopened free list = %d entries, want in [1, %d]", got, limit)
	}
}

func BenchmarkWritePage(b *testing.B) {
	dir := b.TempDir()
	p, _ := Create(filepath.Join(dir, "bench.rdnt"), 1024)
	defer p.Close()
	start, _ := p.AllocateRun(uint64(b.N) + 1)
	payload := make([]byte, p.PayloadSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WritePage(start+PageID(i), payload)
	}
}

func BenchmarkReadPageSequential(b *testing.B) {
	dir := b.TempDir()
	p, _ := Create(filepath.Join(dir, "bench.rdnt"), 1024)
	defer p.Close()
	const pages = 1024
	start, _ := p.AllocateRun(pages)
	payload := make([]byte, p.PayloadSize())
	for i := 0; i < pages; i++ {
		p.WritePage(start+PageID(i), payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadPage(start + PageID(i%pages))
	}
}

// BenchmarkReadRunIntoOnePage is BenchmarkReadPageSequential's pages read
// as one-page runs into a reused buffer, the shape of a segment reader's
// fetch of a block within one page: it should cost no more than ReadPage.
func BenchmarkReadRunIntoOnePage(b *testing.B) {
	dir := b.TempDir()
	p, _ := Create(filepath.Join(dir, "bench.rdnt"), 1024)
	defer p.Close()
	const pages = 1024
	start, _ := p.AllocateRun(pages)
	payload := make([]byte, p.PayloadSize())
	for i := 0; i < pages; i++ {
		p.WritePage(start+PageID(i), payload)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = p.ReadRunInto(buf[:0], start+PageID(i%pages), 1)
	}
}

// TestOpenRejectsForeignHeaders patches the header of a valid file into
// shapes no writer of this package produces — among them the v1 magic
// (no header checksum) and page sizes in [128, 256), both of which once
// opened — and checks Open and CheckHeader return a typed *ErrCorruptPage
// for page 0, never a panic.
func TestOpenRejectsForeignHeaders(t *testing.T) {
	reseal := func(raw []byte, pageSize int) {
		binary.LittleEndian.PutUint32(raw[pageSize-4:], crc32.ChecksumIEEE(raw[:pageSize-4]))
	}
	setSize := func(size uint32) func(raw []byte) {
		return func(raw []byte) {
			binary.LittleEndian.PutUint32(raw[8:], size)
			if int(size) <= len(raw) {
				reseal(raw, int(size)) // a header that is self-consistent at its claimed size
			}
		}
	}
	cases := []struct {
		name  string
		patch func(raw []byte)
	}{
		{"v1 magic", func(raw []byte) { copy(raw, "RDNT0001") }},
		{"v1 magic, resealed", func(raw []byte) { copy(raw, "RDNT0001"); reseal(raw, 1024) }},
		{"page size 128", setSize(128)},
		{"page size 160", setSize(160)},
		{"page size 255", setSize(255)},
		{"page size past file", setSize(MaxPageSize)},
		{"torn header", func(raw []byte) { raw[40] ^= 0xff }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "h.rdnt")
			p, err := Create(path, 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.patch(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var corrupt *ErrCorruptPage
			if q, err := Open(path); err == nil {
				q.Close()
				t.Error("Open accepted the header")
			} else if !errors.As(err, &corrupt) || corrupt.Page != 0 {
				t.Errorf("Open: %v, want *ErrCorruptPage for page 0", err)
			}
			// The integrity walker re-reads the same bytes into a buffer of
			// the size the file was opened with.
			if err := p.CheckHeader(); !errors.As(err, &corrupt) || corrupt.Page != 0 {
				t.Errorf("CheckHeader: %v, want *ErrCorruptPage for page 0", err)
			}
		})
	}
}

// TestReadRunIntoMatchesReadPageLoop pins ReadRunInto's contract: the same
// bytes and the same page-read and seek statistics as a ReadPage loop over
// the run, and on a corrupt page the verified prefix plus a typed error.
func TestReadRunIntoMatchesReadPageLoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rdnt")
	p, err := Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start, _ := p.AllocateRun(10)
	for i := uint64(0); i < 10; i++ {
		if err := p.WritePage(start+PageID(i), []byte{byte(i), 0xAB}); err != nil {
			t.Fatal(err)
		}
	}
	// Two runs with a gap between them, then a backwards jump.
	runs := [][2]uint64{{0, 4}, {6, 3}, {2, 5}}

	p.ResetStats()
	var want []byte
	for _, r := range runs {
		for i := uint64(0); i < r[1]; i++ {
			page, err := p.ReadPage(start + PageID(r[0]+i))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, page...)
		}
	}
	loop := p.Stats()

	p.ResetStats()
	var got []byte
	for _, r := range runs {
		if got, err = p.ReadRunInto(got, start+PageID(r[0]), r[1]); err != nil {
			t.Fatal(err)
		}
	}
	run := p.Stats()
	if !bytes.Equal(got, want) {
		t.Error("ReadRunInto returned different bytes than the ReadPage loop")
	}
	if run.PageReads != loop.PageReads || run.Seeks != loop.Seeks || run.SeekDistance != loop.SeekDistance {
		t.Errorf("ReadRunInto stats %+v, ReadPage loop %+v", run, loop)
	}

	// Corrupt page 3 of the run: pages 0-2 still come back.
	raw, _ := os.ReadFile(path)
	raw[int(start+3)*1024+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	prefix, err := p.ReadRunInto(nil, start, 10)
	var corrupt *ErrCorruptPage
	if !errors.As(err, &corrupt) || corrupt.Page != start+3 {
		t.Fatalf("ReadRunInto over a corrupt page: %v, want *ErrCorruptPage for page %d", err, start+3)
	}
	if !bytes.Equal(prefix, want[:3*p.PayloadSize()]) {
		t.Errorf("verified prefix is %d bytes, want the first 3 pages", len(prefix))
	}
}

// fillPages writes n pages starting at start, page i holding its index.
func fillPages(t *testing.T, p *File, start PageID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.WritePage(start+PageID(i), binary.LittleEndian.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPages reads back what fillPages wrote.
func checkPages(t *testing.T, p *File, start PageID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := p.ReadPage(start + PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(got); v != uint32(i) {
			t.Fatalf("page %d holds %d, want %d", start+PageID(i), v, i)
		}
	}
}

// TestCloseTrimsSlack: a cleanly closed file ends at the allocation cursor,
// not at the end of the batch growTo preallocated, and reopens, allocates
// and reads back.
func TestCloseTrimsSlack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trim.rdnt")
	p, err := Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Ten extending allocations: the file grows in batches past the cursor.
	var start PageID
	for i := 0; i < 10; i++ {
		id, err := p.AllocateRun(10)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			start = id
		}
	}
	fillPages(t, p, start, 100)
	next := p.nextPage.Load()
	if p.filePages <= next {
		t.Fatalf("no preallocated slack to trim: file %d pages, cursor %d", p.filePages, next)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(next)*1024 {
		t.Fatalf("closed file is %d bytes, want cursor %d x 1024", st.Size(), next)
	}
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.CheckHeader(); err != nil {
		t.Fatal(err)
	}
	checkPages(t, q, start, 100)
	more, err := q.AllocateRun(10)
	if err != nil {
		t.Fatal(err)
	}
	if more != PageID(next) {
		t.Errorf("allocation after reopen at page %d, want the cursor %d", more, next)
	}
	fillPages(t, q, more, 10)
	checkPages(t, q, more, 10)
}

// TestCloseTrimSurvivesPowerCut cuts power between Close's truncate and its
// sync, under both crash modes: the image reopens with every synced page and
// allocates past them.
func TestCloseTrimSurvivesPowerCut(t *testing.T) {
	for _, mode := range []vfs.CrashMode{vfs.CrashDrop, vfs.CrashKeep} {
		fs := vfs.NewFault(1)
		p, err := CreateAt(fs, "cut.rdnt", 1024)
		if err != nil {
			t.Fatal(err)
		}
		start, err := p.AllocateRun(100)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, p, start, 100)
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		late, err := p.AllocateRun(5) // unsynced: lost under CrashDrop
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, p, late, 5)
		var imgs map[string]vfs.Image
		fs.OnOp = func(op vfs.Op) {
			if op.Kind == vfs.OpTruncate {
				imgs = fs.SnapshotCrash(mode)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if imgs == nil {
			t.Fatal("Close issued no truncate")
		}
		q, err := OpenAt(vfs.NewFaultFromImages(1, imgs), "cut.rdnt")
		if err != nil {
			t.Fatalf("mode %d: reopen: %v", mode, err)
		}
		if err := q.CheckHeader(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		checkPages(t, q, start, 100)
		if mode == vfs.CrashKeep {
			checkPages(t, q, late, 5)
		}
		id, err := q.AllocateRun(3)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, q, id, 3)
		checkPages(t, q, id, 3)
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplaceMetaExtentSyncFirst: the file is fsynced between the payload
// write and the header write that names it, so the header cannot reach disk
// ahead of the payload or of pages written before the call.
func TestReplaceMetaExtentSyncFirst(t *testing.T) {
	fs := vfs.NewFault(1)
	p, err := CreateAt(fs, "meta.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	start, err := p.AllocateRun(2)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, p, start, 2)
	var ops []string
	fs.OnOp = func(op vfs.Op) {
		switch {
		case op.Kind == vfs.OpSync:
			ops = append(ops, "sync")
		case op.Kind == vfs.OpWrite && op.Off == 0:
			ops = append(ops, "header")
		case op.Kind == vfs.OpWrite:
			ops = append(ops, "payload")
		}
	}
	if _, err := p.ReplaceMetaExtent(0, 1, 2, 3, 42, []byte("payload"), Extent{Start: InvalidPage}); err != nil {
		t.Fatal(err)
	}
	fs.OnOp = nil
	if want := []string{"payload", "sync", "header"}; !slices.Equal(ops, want) {
		t.Errorf("ops %v, want %v", ops, want)
	}
	if got := p.MetaGet(3); got != 42 {
		t.Errorf("tag slot holds %d, want 42", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
