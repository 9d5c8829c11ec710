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

// TestFreeRunRefusesFreeSpace: a free that overlaps free space, or passes
// the cursor, is refused and changes nothing, so first fit never hands one
// page out twice.
func TestFreeRunRefusesFreeSpace(t *testing.T) {
	p := newFile(t, 1024)
	a, _ := p.AllocateRun(12)
	if err := p.FreeRun(a+4, 4); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Extent{{a + 4, 4}, {a + 2, 3}, {a + 7, 2}, {a, 12}, {a + 10, 4}} {
		if err := p.FreeRun(bad.Start, bad.Count); err == nil {
			t.Errorf("free of [%d,+%d) beside free [%d,+4) was accepted", bad.Start, bad.Count, a+4)
		}
	}
	if n := p.NumPages(); n != 8 {
		t.Fatalf("NumPages %d after refused frees, want 8", n)
	}
	if err := p.FreeRun(a+8, 2); err != nil { // adjacent, not overlapping
		t.Fatal(err)
	}
	b, _ := p.AllocateRun(6)
	c, _ := p.AllocateRun(1)
	if b != a+4 || c == b {
		t.Fatalf("allocations at %d and %d, want the freed run at %d and then another page", b, c, a+4)
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

// TestFragmentedFreesStayReusable: a fragmented free pattern (every other
// extent, so nothing coalesces) of more extents than any header could list
// keeps every freed page reusable; allocations land in them before the file
// grows.
func TestFragmentedFreesStayReusable(t *testing.T) {
	p := newFile(t, MinPageSize)
	const extents = 400
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
	if got, want := p.NumPages(), uint64(extents); got != want {
		t.Fatalf("NumPages %d after freeing half, want %d", got, want)
	}
	cursor := p.nextPage.Load()
	for i := 0; i < extents; i += 2 {
		id, err := p.AllocateRun(2)
		if err != nil {
			t.Fatal(err)
		}
		if id != starts[i] {
			t.Fatalf("allocation %d at page %d, want the freed extent at %d", i/2, id, starts[i])
		}
	}
	if got := p.nextPage.Load(); got != cursor {
		t.Fatalf("the file grew from %d to %d pages with %d freed pages to reuse", cursor, got, extents)
	}
}

// TestReclaimDerivesFreeSpace: after a reopen, free space is the complement
// of the extents the caller owns, the cursor drops to the last owned page,
// and allocation reuses the gaps first fit.
func TestReclaimDerivesFreeSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reclaim.rdnt")
	p, err := Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocateRun(40); err != nil { // pages [1, 41)
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.NumPages(); got != 40 {
		t.Fatalf("before Reclaim NumPages = %d, want all 40 (nothing is free)", got)
	}
	owned := []Extent{{Start: 20, Count: 5}, {Start: 3, Count: 2}, {Start: 25, Count: 3}}
	if err := q.Reclaim(owned); err != nil {
		t.Fatal(err)
	}
	if got := q.NumPages(); got != 10 {
		t.Errorf("NumPages = %d, want the 10 owned", got)
	}
	if got := q.nextPage.Load(); got != 28 {
		t.Errorf("cursor %d, want 28 (the end of the last owned extent)", got)
	}
	if free, errs := q.CheckExtents(owned); free != 17 || len(errs) != 0 {
		t.Errorf("CheckExtents: %d free pages, %v; want 17 and no issue", free, errs)
	}
	for _, a := range []struct {
		n    uint64
		want PageID
	}{{2, 1}, {15, 5}, {1, 28}} {
		got, err := q.AllocateRun(a.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != a.want {
			t.Errorf("AllocateRun(%d) = %d, want %d", a.n, got, a.want)
		}
	}
}

// TestOwnedExtentsAudited: Reclaim refuses, and CheckExtents reports, owned
// extents that overlap each other or pass the cursor; CheckExtents also
// reports one that touches free space.
func TestOwnedExtentsAudited(t *testing.T) {
	p := newFile(t, 1024)
	if _, err := p.AllocateRun(10); err != nil { // pages [1, 11)
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		owned []Extent
	}{
		{"overlap", []Extent{{Start: 1, Count: 4}, {Start: 4, Count: 2}}},
		{"nested", []Extent{{Start: 1, Count: 8}, {Start: 6, Count: 1}, {Start: 9, Count: 1}}},
		{"past the cursor", []Extent{{Start: 8, Count: 4}}},
		{"header page", []Extent{{Start: 0, Count: 2}}},
	} {
		if err := p.Reclaim(tc.owned); err == nil {
			t.Errorf("%s: Reclaim accepted %v", tc.name, tc.owned)
		}
		if _, errs := p.CheckExtents(tc.owned); len(errs) != 1 {
			t.Errorf("%s: CheckExtents reported %v, want one issue", tc.name, errs)
		}
	}
	if got := p.NumPages(); got != 10 {
		t.Fatalf("a refused Reclaim changed the allocation state: NumPages %d", got)
	}
	if err := p.FreeRun(5, 2); err != nil {
		t.Fatal(err)
	}
	if _, errs := p.CheckExtents([]Extent{{Start: 1, Count: 5}}); len(errs) != 1 {
		t.Errorf("an owned extent over free pages: CheckExtents reported %v, want one issue", errs)
	}
}

// TestHeaderWrittenOnlyByFlushAndClose: allocations, frees and syncs write
// no header; a meta-extent flip and Close write one each, of one sector.
func TestHeaderWrittenOnlyByFlushAndClose(t *testing.T) {
	fs := vfs.NewFault(1)
	p, err := CreateAt(fs, "h.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	headers := 0
	fs.OnOp = func(op vfs.Op) {
		if op.Kind == vfs.OpWrite && op.Off == 0 {
			headers++
			if op.Len > vfs.SectorSize {
				t.Errorf("a %d-byte header write spans more than one sector", op.Len)
			}
		}
	}
	for i := 0; i < 10; i++ {
		id, err := p.AllocateRun(3)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, p, id, 3)
		if i%2 == 0 {
			if err := p.FreeRun(id, 3); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if headers != 0 {
		t.Fatalf("allocations, frees and syncs wrote the header %d times", headers)
	}
	if _, err := p.ReplaceMetaExtent(0, 1, 2, 3, 7, []byte("catalog")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if headers != 2 {
		t.Fatalf("%d header writes from one flip and Close, want 2", headers)
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
// shapes no writer of this package produces — among them the v1 magic (no
// header checksum), the v2 magic (a header that persisted a free list) and
// page sizes in [128, 256), which once opened — and checks Open and CheckHeader return a typed
// *ErrCorruptPage for page 0, never a panic.
func TestOpenRejectsForeignHeaders(t *testing.T) {
	reseal := func(raw []byte) {
		binary.LittleEndian.PutUint32(raw[headerSize-4:], crc32.ChecksumIEEE(raw[:headerSize-4]))
	}
	setSize := func(size uint32) func(raw []byte) {
		return func(raw []byte) {
			binary.LittleEndian.PutUint32(raw[8:], size)
			reseal(raw) // a header that is self-consistent at its claimed size
		}
	}
	cases := []struct {
		name  string
		patch func(raw []byte)
	}{
		{"v1 magic", func(raw []byte) { copy(raw, "RDNT0001") }},
		{"v1 magic, resealed", func(raw []byte) { copy(raw, "RDNT0001"); reseal(raw) }},
		{"v2 magic", func(raw []byte) { copy(raw, "RDNT0002") }},
		{"v2 magic, resealed", func(raw []byte) { copy(raw, "RDNT0002"); reseal(raw) }},
		{"page size 128", setSize(128)},
		{"page size 160", setSize(160)},
		{"page size 255", setSize(255)},
		{"page size past the maximum", setSize(2 * MaxPageSize)},
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
// sync, under both crash modes: the image reopens with every page the last
// durable header covers and allocates past them.
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
		// A flush makes the header name the cursor past them.
		if _, err := p.ReplaceMetaExtent(0, 1, 2, 3, 1, []byte("meta")); err != nil {
			t.Fatal(err)
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		late, err := p.AllocateRun(5) // no header names it before the cut
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
		// late's pages were allocated after the last header write: no
		// durable header covers them, so they are past the cursor.
		checkPages(t, q, start, 100)
		if _, err := q.ReadPage(late); err == nil {
			t.Errorf("mode %d: page %d past the durable cursor reads back", mode, late)
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
	if _, err := p.ReplaceMetaExtent(0, 1, 2, 3, 42, []byte("payload")); err != nil {
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
