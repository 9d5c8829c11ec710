package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one public call
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Clients buffer their own
// spans and hand them over once (add). The probe phase, which is single
// threaded, nests spans with begin/end: the open span is the implicit parent
// of whatever the vfs and pager wrappers record meanwhile, which is how the
// I/O a probe causes becomes its child.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	cur   atomic.Uint64 // innermost open probe span; 0 = none
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// openSpan is a probe span that has begun and not yet ended.
type openSpan struct {
	t           *tracer
	id, parent  uint64
	layer, name string
	start       time.Time
}

// begin opens a span under the innermost open one and makes it innermost.
func (t *tracer) begin(layer, name string) openSpan {
	o := openSpan{t: t, id: t.ids.Add(1), parent: t.cur.Load(), layer: layer, name: name}
	t.cur.Store(o.id)
	o.start = time.Now()
	return o
}

// end closes the span, restores its parent as innermost and returns the
// span's duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	o.t.cur.Store(o.parent)
	o.t.add(span{ID: o.id, Parent: o.parent, Layer: o.layer, Name: o.name, Start: o.t.since(o.start), End: o.t.since(now)})
	return now.Sub(o.start)
}

// leaf records a finished call as a child of the innermost open probe span;
// outside the probe phase (nothing open) it records nothing.
func (t *tracer) leaf(layer, name string, start, end time.Time) {
	parent := t.cur.Load()
	if parent == 0 {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Layer: layer, Name: name, Start: t.since(start), End: t.since(end)})
}

// mark returns how many spans exist, so a probe can later look at only the
// spans it produced (spansSince).
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) spansSince(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover (overlapping children count once and are
// clipped to the parent).
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// selfBy sums self time by key(span): how a probe's wall time splits
// between the layer probed and the layers under it.
func selfBy(spans []span, key func(span) string) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[key(s)] += time.Duration(self[s.ID])
	}
	return out
}

func byLayer(s span) string { return s.Layer }
func byName(s span) string  { return s.Layer + "/" + s.Name }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
