package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "segment", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "pager", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "pager", Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Layer: "pager", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Layer: "vfs", Start: 12, End: 28},    // a grandchild only reduces its parent
		{ID: 6, Layer: "segment", Start: 200, End: 210},         // no children
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 4, 3: 30, 4: 30, 5: 16, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	by := selfBy(spans, byLayer)
	if by["segment"] != 60 || by["pager"] != 64 || by["vfs"] != 16 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestTracerNestsProbeSpans(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	tr.leaf("vfs", "ReadAt", now, now) // nothing open: not recorded
	outer := tr.begin("segment", "View")
	inner := tr.begin("pager", "ReadPage")
	tr.leaf("vfs", "ReadAt", time.Now(), time.Now())
	inner.end()
	tr.leaf("vfs", "ReadAt", time.Now(), time.Now())
	outer.end()
	if tr.cur.Load() != 0 {
		t.Fatal("a span is still open")
	}
	spans := tr.spansSince(0)
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Layer] = append(byName[s.Layer], s)
	}
	view, page := byName["segment"][0], byName["pager"][0]
	if view.Parent != 0 || page.Parent != view.ID {
		t.Errorf("nesting: view %+v, page %+v", view, page)
	}
	if byName["vfs"][0].Parent != page.ID || byName["vfs"][1].Parent != view.ID {
		t.Errorf("vfs parents: %+v", byName["vfs"])
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) != 4 {
		t.Fatalf("span file: %v, %d spans", err, len(file.Spans))
	}
}
