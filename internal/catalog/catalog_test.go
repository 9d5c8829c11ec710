package catalog

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

func newFile(t *testing.T) (*pager.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cat.rdnt")
	f, err := pager.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, path
}

func sampleTable() *Table {
	return &Table{
		Name: "Traces",
		Fields: []FieldMeta{
			{Name: "t", Type: "int"},
			{Name: "lat", Type: "float"},
			{Name: "id", Type: "string"},
		},
		LayoutExpr: "rows(Traces)",
		RowCount:   42,
		Segments: []SegmentEntry{{
			Fields: []string{"t", "lat", "id"},
			Codecs: []string{"", "delta", ""},
			Meta: segment.Meta{
				ExtentStart: 5, ExtentPages: 10, UsedBytes: 9000, Rows: 42,
				Blocks: []segment.BlockMeta{{Off: 0, Len: 9000, Rows: 42, Cell: segment.NoCell}},
			},
		}},
		GridBounds: []GridBoundsMeta{{Field: "lat", Min: 42.3, Max: 42.4, Cells: 64}},
	}
}

func TestEmptyCatalog(t *testing.T) {
	f, _ := newFile(t)
	c, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 0 {
		t.Errorf("names: %v", c.Names())
	}
	if c.Has("x") {
		t.Error("Has on empty catalog")
	}
	if _, err := c.Get("x"); err == nil {
		t.Error("Get on empty catalog should fail")
	}
}

func TestPutGetPersist(t *testing.T) {
	f, path := newFile(t)
	c, _ := Load(f)
	if err := c.Put(sampleTable()); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("Traces")
	if err != nil {
		t.Fatal(err)
	}
	if got.RowCount != 42 || got.LayoutExpr != "rows(Traces)" {
		t.Errorf("got %+v", got)
	}
	f.Close()

	// Reopen: everything must be restored.
	f2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	c2, err := Load(f2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := c2.Get("Traces")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, sampleTable()) {
		t.Errorf("persisted table differs:\n got %+v\nwant %+v", got2, sampleTable())
	}
}

func TestSchemaReconstruction(t *testing.T) {
	tab := sampleTable()
	s, err := tab.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "t:int, lat:float, id:string" {
		t.Errorf("schema: %s", s)
	}
	bad := &Table{Name: "X", Fields: []FieldMeta{{Name: "a", Type: "widget"}}}
	if _, err := bad.Schema(); err == nil {
		t.Error("bad type should fail")
	}
}

func TestFieldsOfRoundtrip(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Bool},
	)
	fm := FieldsOf(s)
	tab := &Table{Name: "T", Fields: fm}
	back, err := tab.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s.String() {
		t.Errorf("roundtrip: %s vs %s", back, s)
	}
}

func TestDeleteAndNames(t *testing.T) {
	f, _ := newFile(t)
	c, _ := Load(f)
	c.Put(sampleTable())
	c.Put(&Table{Name: "Areas", Fields: []FieldMeta{{Name: "a", Type: "int"}}, LayoutExpr: "rows(Areas)"})
	if got := c.Names(); !reflect.DeepEqual(got, []string{"Areas", "Traces"}) {
		t.Errorf("names: %v", got)
	}
	if err := c.Delete("Areas"); err != nil {
		t.Fatal(err)
	}
	if c.Has("Areas") {
		t.Error("Areas still present")
	}
	if err := c.Delete("Areas"); err == nil {
		t.Error("double delete should fail")
	}
}

func TestSchemas(t *testing.T) {
	f, _ := newFile(t)
	c, _ := Load(f)
	c.Put(sampleTable())
	m, err := c.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m["Traces"].Arity() != 3 {
		t.Errorf("schemas: %v", m)
	}
}

func TestRepeatedFlushReclaimsSpace(t *testing.T) {
	// Rewriting the catalog many times must not grow the file unboundedly:
	// old extents are freed and reused.
	f, _ := newFile(t)
	c, _ := Load(f)
	c.Put(sampleTable())
	after1 := f.NumPages()
	for i := 0; i < 50; i++ {
		tab, _ := c.Get("Traces")
		tab.RowCount = int64(i)
		if err := c.Put(tab); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.NumPages(); got > after1+2 {
		t.Errorf("catalog rewrites leak pages: %d -> %d", after1, got)
	}
}

func TestFlushRecordsReflectedCommit(t *testing.T) {
	// Every flush records the id of the last commit PutBuffered handed out,
	// in the header write that publishes the new extent; Load reads it back
	// and numbers new commits after it.
	f, path := newFile(t)
	c, _ := Load(f)
	if err := c.Put(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if id := c.PutBuffered(sampleTable()); id != 1 {
		t.Fatalf("first buffered put got commit id %d, want 1", id)
	}
	if c.reflects != 0 {
		t.Fatalf("buffered update moved reflects to %d, want 0", c.reflects)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	c2, err := Load(f2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.reflects != 1 {
		t.Fatalf("reloaded catalog reflects commit %d, want 1", c2.reflects)
	}
	if id := c2.PutBuffered(sampleTable()); id != 2 {
		t.Fatalf("first commit after reload got id %d, want 2", id)
	}
}

// TestApplyTailAppendWritesAFreshExtent: a replayed tail record lands on a
// newly allocated extent — never the one it names, which another part may
// own by now — and records the catalog reflects, or for a dropped table, are
// skipped.
func TestApplyTailAppendWritesAFreshExtent(t *testing.T) {
	f, _ := newFile(t)
	c, _ := Load(f)
	if err := c.Put(sampleTable()); err != nil {
		t.Fatal(err)
	}
	stream := []byte(strings.Repeat("tail bytes ", 200))
	owned, err := f.AllocateRun(3) // the extent the record names, reused since
	if err != nil {
		t.Fatal(err)
	}
	batch := []SegmentEntry{{
		Fields: []string{"t", "lat", "id"}, Codecs: []string{"", "", ""},
		Meta: segment.Meta{ExtentStart: owned, ExtentPages: 3, UsedBytes: uint64(len(stream)), Rows: 7},
	}}
	rec := EncodeTailAppend("Traces", batch, 7, [][]byte{stream})
	c.reflects = 4
	for _, id := range []uint64{3, 4} {
		if err := c.ApplyTailAppend(id, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ApplyTailAppend(5, EncodeTailAppend("Gone", batch, 7, [][]byte{stream})); err != nil {
		t.Fatal(err)
	}
	if tab, _ := c.Get("Traces"); len(tab.Tails) != 0 || c.dirty {
		t.Fatalf("records at or below the watermark, or of a dropped table, applied: %d tails", len(tab.Tails))
	}
	if err := c.ApplyTailAppend(6, rec); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Get("Traces")
	if len(tab.Tails) != 1 || tab.RowCount != 42+7 {
		t.Fatalf("%d tails, %d rows after replay; want 1 and %d", len(tab.Tails), tab.RowCount, 42+7)
	}
	m := tab.Tails[0][0].Meta
	if m.ExtentStart == owned {
		t.Fatal("replay wrote into the extent the record names")
	}
	got, err := f.ReadRunInto(nil, m.ExtentStart, m.ExtentPages)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(stream)]) != string(stream) {
		t.Fatal("replayed extent does not hold the logged stream")
	}
	if c.issued != 6 {
		t.Fatalf("issued %d after replaying commit 6", c.issued)
	}
}

func TestLargeCatalog(t *testing.T) {
	// A catalog spanning many pages (large block lists) roundtrips.
	f, path := newFile(t)
	c, _ := Load(f)
	tab := sampleTable()
	for i := 0; i < 2000; i++ {
		tab.Segments[0].Meta.Blocks = append(tab.Segments[0].Meta.Blocks, segment.BlockMeta{
			Off: uint64(i * 100), Len: 100, Rows: 10, RowStart: int64(i * 10), Cell: uint64(i),
			Zones: []segment.ZoneMap{{Field: "lat", Min: float64(i), Max: float64(i + 1)}},
		})
	}
	if err := c.Put(tab); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f2, _ := pager.Open(path)
	defer f2.Close()
	c2, err := Load(f2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c2.Get("Traces")
	if len(got.Segments[0].Meta.Blocks) != 2001 {
		t.Errorf("blocks: %d", len(got.Segments[0].Meta.Blocks))
	}
}

// TestLoadRejectsForeignCatalog stores payloads no encoder of this package
// ever wrote — among them the JSON array form, which once loaded — and
// checks Load turns each into an error rather than a panic or an empty
// catalog.
func TestLoadRejectsForeignCatalog(t *testing.T) {
	good := encodeTables([]*Table{sampleTable()})
	cases := []struct {
		name    string
		payload []byte
		byteLen uint64 // 0 = len(payload)
		want    string
	}{
		{name: "json array", payload: []byte(`[{"name":"Traces","rows":42}]`), want: "bad catalog header"},
		{name: "json empty array", payload: []byte(`[]`), want: "bad catalog header"},
		{name: "unknown version", payload: []byte{catMagic, 9, 0}, want: "bad catalog header"},
		{name: "run-less version 1", payload: []byte{catMagic, 1, 0}, want: "bad catalog header"},
		{name: "version 2, no reflected commit", payload: []byte{catMagic, 2, 0}, want: "bad catalog header"},
		{name: "version 3, logs of page images", payload: []byte{catMagic, 3, 0}, want: "bad catalog header"},
		{name: "version 4, index trees without extents", payload: []byte{catMagic, 4, 0}, want: "bad catalog header"},
		{name: "magic only", payload: []byte{catMagic}, want: "bad catalog header"},
		{name: "length past extent", payload: good, byteLen: 1 << 20, want: "bytes recorded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := newFile(t)
			_, err := f.ReplaceMetaExtent(slotExtentStart, slotExtentPages, slotByteLen, slotReflects, 0, tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			if tc.byteLen != 0 {
				f.MetaSet(slotByteLen, tc.byteLen)
			}
			c, err := Load(f)
			if err == nil {
				t.Fatalf("Load accepted the payload (%d tables)", len(c.Names()))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error %q, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestGetDuringFlush parks a flush in its file sync and requires a Get of
// another table, a Has and a Names to return meanwhile, with the records
// published before the flush: readers take no lock, so a checkpoint's
// catalog write never stalls them. A failed flush publishes nothing.
func TestGetDuringFlush(t *testing.T) {
	fs := vfs.NewFault(1)
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpSync && op.Path == "cat.rdnt" && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return vfs.OK
	}
	f, err := pager.CreateAt(fs, "cat.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	c, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(sampleTable()); err != nil {
		t.Fatal(err)
	}
	other := sampleTable()
	other.Name = "Other"
	armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- c.Put(other) }()
	<-parked
	got := make(chan error, 1)
	go func() {
		tab, err := c.Get("Traces")
		if err == nil && (tab.RowCount != 42 || c.Has("Other") || len(c.Names()) != 1) {
			err = fmt.Errorf("mid-flush reads: %d rows, Has(Other) %v, names %v", tab.RowCount, c.Has("Other"), c.Names())
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Get waited for a flush parked in its sync")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if !c.Has("Other") {
		t.Fatal("the flushed record is not published")
	}

	// A flush that fails leaves the catalog's records as they were.
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpSync {
			return vfs.Fail
		}
		return vfs.OK
	}
	third := sampleTable()
	third.Name = "Third"
	if err := c.Put(third); err == nil {
		t.Fatal("Put succeeded over a failing sync")
	}
	if err := c.Delete("Other"); err == nil {
		t.Fatal("Delete succeeded over a failing sync")
	}
	if c.Has("Third") || !c.Has("Other") {
		t.Fatalf("failed flushes changed the records: %v", c.Names())
	}
}
