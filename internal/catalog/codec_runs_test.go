package catalog

import (
	"bytes"
	"reflect"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
)

func runTable() *Table {
	t := sampleTable()
	t.Runs = []RunEntry{
		{Level: 2, Rows: 80, Segments: []SegmentEntry{{
			Fields: []string{"t", "lat", "id"},
			Codecs: []string{"", "", "dict"},
			Meta: segment.Meta{
				ExtentStart: 30, ExtentPages: 6, UsedBytes: 4100, Rows: 80,
				Blocks: []segment.BlockMeta{{Off: 0, Len: 4100, Rows: 80, Cell: segment.NoCell}},
			},
		}}},
		{Level: 1, Rows: 25, Segments: []SegmentEntry{{
			Fields: []string{"t", "lat", "id"},
			Codecs: []string{"", "", ""},
			Meta: segment.Meta{
				ExtentStart: 40, ExtentPages: 2, UsedBytes: 900, Rows: 25,
				Blocks: []segment.BlockMeta{{Off: 0, Len: 900, Rows: 25, Cell: segment.NoCell}},
			},
		}}},
	}
	t.Indexes = []IndexMeta{{Field: "t", Root: 52, Rows: 80, Extents: []pager.Extent{{Start: 50, Count: 2}, {Start: 52, Count: 1}}}}
	return t
}

func TestCodecRunsRoundtrip(t *testing.T) {
	want := []*Table{runTable(), sampleTable()}
	got, err := decodeTables(encodeTables(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got[0], want[0])
	}
}

func TestCodecRunFreeRoundtrip(t *testing.T) {
	// There is one record format: a catalog without runs carries the same
	// version byte and an empty run list per table.
	tables := []*Table{sampleTable(), sampleTable()}
	tables[1].Name = "Other"
	blob := encodeTables(tables)
	if blob[1] != catVersion || blob[1] != encodeTables([]*Table{runTable()})[1] {
		t.Fatalf("run-free catalog encodes as v%d, want the one version v%d", blob[1], catVersion)
	}
	got, err := decodeTables(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tables) {
		t.Error("run-free roundtrip mismatch")
	}

	// A table whose runs were folded away, and its index with them,
	// re-encodes exactly like one that never had any.
	rt := runTable()
	rt.Runs, rt.Indexes = nil, nil
	if !bytes.Equal(encodeTables([]*Table{rt}), encodeTables([]*Table{sampleTable()})) {
		t.Error("table with cleared runs does not re-encode like a run-free one")
	}
}

func TestCodecRunsTruncated(t *testing.T) {
	blob := encodeTables([]*Table{runTable()})
	for _, cut := range []int{len(blob) - 1, len(blob) / 2, 3} {
		if _, err := decodeTables(blob[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// TestOwnedListsEveryExtent: the catalog owns its own extent and, through
// every table, each part's segments and each index tree's levels.
func TestOwnedListsEveryExtent(t *testing.T) {
	f, _ := newFile(t)
	c, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(runTable()); err != nil {
		t.Fatal(err)
	}
	var got []pager.Extent
	c.Owned(func(owned []pager.Extent) { got = owned })
	self := pager.Extent{Start: pager.PageID(f.MetaGet(slotExtentStart)), Count: f.MetaGet(slotExtentPages)}
	want := []pager.Extent{self, {Start: 5, Count: 10}, {Start: 30, Count: 6}, {Start: 40, Count: 2}, {Start: 50, Count: 2}, {Start: 52, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Owned = %v, want %v", got, want)
	}
}

func TestPartsAreChronological(t *testing.T) {
	tab := runTable() // main + runs at L2, L1 + whatever tails sampleTable has
	tab.Tails = [][]SegmentEntry{tab.Segments, tab.Segments}
	var labels []string
	for _, p := range tab.Parts() {
		labels = append(labels, p.String())
	}
	want := []string{"main", "run[0]L2", "run[1]L1", "tail[0]", "tail[1]"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("Parts() = %v, want %v", labels, want)
	}
	// A table never bulk-loaded has no main part to enumerate.
	tab.Segments = nil
	if parts := tab.Parts(); len(parts) != 4 || parts[0].Kind != PartRun {
		t.Fatalf("without main segments Parts() starts with %v", parts[0])
	}
}
