package rtree

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"rodentstore/internal/pager"
)

func newFile(t *testing.T) *pager.File {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "rt.rdnt"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a,b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a,c should not intersect")
	}
	if !a.Intersects(Rect{2, 2, 4, 4}) {
		t.Error("touching boundaries intersect (closed rects)")
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("union: %+v", u)
	}
	if p := Point(1, 1); p != (Rect{1, 1, 1, 1}) || !a.Intersects(p) {
		t.Error("point rect wrong")
	}
}

func bruteForce(pts []Rect, q Rect) map[uint64]bool {
	out := make(map[uint64]bool)
	for i, p := range pts {
		if p.Intersects(q) {
			out[uint64(i)] = true
		}
	}
	return out
}

func randomPoints(n int, seed int64) []Rect {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Rect, n)
	for i := range pts {
		pts[i] = Point(r.Float64()*100, r.Float64()*100)
	}
	return pts
}

// bulkLoad builds a tree over rects, each referenced by its index.
func bulkLoad(t *testing.T, rects []Rect) *Tree {
	t.Helper()
	entries := make([]Entry, len(rects))
	for i, r := range rects {
		entries[i] = Entry{r, uint64(i)}
	}
	tr, err := BulkLoad(newFile(t), entries)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkQueries(t *testing.T, tr *Tree, pts []Rect, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for q := 0; q < 30; q++ {
		x, y := r.Float64()*90, r.Float64()*90
		query := Rect{x, y, x + 10, y + 10}
		want := bruteForce(pts, query)
		got := make(map[uint64]bool)
		err := tr.Search(query, func(e Entry) bool {
			got[e.Ref] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", q, len(got), len(want))
		}
		for ref := range want {
			if !got[ref] {
				t.Fatalf("query %d: missing ref %d", q, ref)
			}
		}
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	pts := randomPoints(5000, 9)
	checkQueries(t, bulkLoad(t, pts), pts, 10)
}

// TestBulkLoadSizes builds trees whose sizes straddle one node's fill and
// a two-level tree's, plus one whose entries all share a point. Each must
// hold every entry exactly once and find it by its own box.
func TestBulkLoadSizes(t *testing.T) {
	fill := maxEntries(newFile(t)) * 3 / 4
	type input struct {
		name string
		pts  []Rect
	}
	same := input{"same point", make([]Rect, fill+1)}
	for i := range same.pts {
		same.pts[i] = Point(5, 5)
	}
	inputs := []input{same}
	for _, n := range []int{1, fill, fill + 1, fill * fill, fill*fill + 1} {
		inputs = append(inputs, input{fmt.Sprintf("n=%d", n), randomPoints(n, int64(n))})
	}
	for _, in := range inputs {
		pts := in.pts
		t.Run(in.name, func(t *testing.T) {
			tr := bulkLoad(t, pts)
			checkStructure(t, tr, fill)
			seen := make([]int, len(pts))
			if err := tr.Search(Rect{0, 0, 100, 100}, func(e Entry) bool { seen[e.Ref]++; return true }); err != nil {
				t.Fatal(err)
			}
			for ref, c := range seen {
				if c != 1 {
					t.Fatalf("entry %d found %d times by a query covering all", ref, c)
				}
			}
			for i, p := range pts {
				found := false
				if err := tr.Search(p, func(e Entry) bool { found = e.Ref == uint64(i); return !found }); err != nil {
					t.Fatal(err)
				}
				if !found {
					t.Fatalf("entry %d not found by its own box %+v", i, p)
				}
			}
			checkQueries(t, tr, pts, int64(len(pts))+1)
		})
	}
}

// checkStructure walks tr: every node holds 1..fill entries, every leaf is
// at one depth, and each parent entry's box is exactly its child's cover.
func checkStructure(t *testing.T, tr *Tree, fill int) {
	t.Helper()
	leafDepth := -1
	var walk func(id uint64, depth int) Rect
	walk = func(id uint64, depth int) Rect {
		n, err := tr.readNode(pager.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(n.entries) == 0 || len(n.entries) > fill {
			t.Fatalf("node %d holds %d entries, want 1..%d", id, len(n.entries), fill)
		}
		if n.isLeaf {
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		} else {
			for _, e := range n.entries {
				if cover := walk(e.Ref, depth+1); cover != e.Rect {
					t.Fatalf("node %d: entry box %+v, child covers %+v", id, e.Rect, cover)
				}
			}
		}
		return coverOf(n.entries)
	}
	walk(uint64(tr.root), 0)
}

func TestEmptyTree(t *testing.T) {
	empty, err := BulkLoad(newFile(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Search(Rect{0, 0, 100, 100}, func(Entry) bool { t.Error("hit in empty"); return true }); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStop(t *testing.T) {
	pts := make([]Rect, 100)
	for i := range pts {
		pts[i] = Point(float64(i%10), float64(i/10))
	}
	tr := bulkLoad(t, pts)
	count := 0
	tr.Search(Rect{0, 0, 10, 10}, func(Entry) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop: %d", count)
	}
}

func TestRectEntries(t *testing.T) {
	// Non-point rects (trajectory bounding boxes).
	tr := bulkLoad(t, []Rect{
		{0, 0, 10, 10},
		{5, 5, 15, 15},
		{20, 20, 30, 30},
		{0, 20, 10, 30},
	})
	got := map[uint64]bool{}
	tr.Search(Rect{8, 8, 9, 9}, func(e Entry) bool { got[e.Ref] = true; return true })
	if !got[0] || !got[1] || got[2] || got[3] {
		t.Errorf("box query: %v", got)
	}
}

func BenchmarkSearch(b *testing.B) {
	f, _ := pager.Create(filepath.Join(b.TempDir(), "rt.rdnt"), 4096)
	defer f.Close()
	pts := randomPoints(50000, 2)
	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{p, uint64(i)}
	}
	tr, _ := BulkLoad(f, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i % 90)
		tr.Search(Rect{x, x, x + 10, x + 10}, func(Entry) bool { return true })
	}
}
