package btree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rodentstore/internal/pager"
	"rodentstore/internal/value"
)

func newTree(t *testing.T) (*Tree, *pager.File) {
	t.Helper()
	f, err := pager.Create(filepath.Join(t.TempDir(), "bt.rdnt"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	tr, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr, f
}

// Search returns the values stored under key.
func (t *Tree) Search(key []byte) ([]uint64, error) {
	var out []uint64
	err := t.Range(key, key, func(k []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.isLeaf {
			return h, nil
		}
		h++
		id = n.next
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 10; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key-%02d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		vals, err := tr.Search([]byte(fmt.Sprintf("key-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i) {
			t.Errorf("key-%02d: %v", i, vals)
		}
	}
	if vals, _ := tr.Search([]byte("missing")); len(vals) != 0 {
		t.Errorf("missing key: %v", vals)
	}
}

func TestInsertManyCausesSplits(t *testing.T) {
	tr, _ := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert([]byte(fmt.Sprintf("k%08d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("5000 keys in 1KB pages must split: height %d", h)
	}
	// Every key findable.
	for i := 0; i < n; i += 97 {
		vals, err := tr.Search([]byte(fmt.Sprintf("k%08d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i) {
			t.Fatalf("key %d: %v", i, vals)
		}
	}
}

func TestRangeScanInOrder(t *testing.T) {
	tr, _ := newTree(t)
	const n = 2000
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		tr.Insert([]byte(fmt.Sprintf("k%08d", i)), uint64(i))
	}
	var got []uint64
	err := tr.Range([]byte("k00000100"), []byte("k00000199"), func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("range size: %d", len(got))
	}
	for i, v := range got {
		if v != uint64(100+i) {
			t.Fatalf("range out of order at %d: %d", i, v)
		}
	}
	// Unbounded hi.
	count := 0
	tr.Range([]byte("k00001990"), nil, func(k []byte, v uint64) bool {
		count++
		return true
	})
	if count != 10 {
		t.Errorf("unbounded range: %d", count)
	}
	// Early stop.
	count = 0
	tr.Range(nil, nil, func(k []byte, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop: %d", count)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, _ := newTree(t)
	for i := 0; i < 500; i++ {
		if err := tr.Insert([]byte("dup"), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert([]byte(fmt.Sprintf("other%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := tr.Search([]byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 500 {
		t.Errorf("duplicates found: %d, want 500", len(vals))
	}
}

func TestAgainstReferenceModel(t *testing.T) {
	tr, _ := newTree(t)
	ref := make(map[string][]uint64)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("k%04d", r.Intn(500))
		tr.Insert([]byte(key), uint64(i))
		ref[key] = append(ref[key], uint64(i))
	}
	for key, want := range ref {
		got, err := tr.Search([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(want) {
			t.Fatalf("key %s: %d values, want %d", key, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %s value %d: %d != %d", key, i, got[i], want[i])
			}
		}
	}
	// Full scan visits everything in sorted key order.
	var keys []string
	total := 0
	tr.Range(nil, nil, func(k []byte, v uint64) bool {
		keys = append(keys, string(k))
		total++
		return true
	})
	if total != 3000 {
		t.Errorf("full scan: %d entries", total)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("full scan not in key order")
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.rdnt")
	f, _ := pager.Create(path, 1024)
	tr, _ := New(f)
	for i := 0; i < 1000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%05d", i)), uint64(i))
	}
	root := tr.Root()
	f.MetaSet(5, uint64(root))
	f.Close()

	f2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	tr2 := Open(f2, pager.PageID(f2.MetaGet(5)))
	vals, err := tr2.Search([]byte("k00777"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 777 {
		t.Errorf("persisted search: %v", vals)
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	// Int keys.
	f := func(a, b int64) bool {
		ka, kb := EncodeKey(value.NewInt(a)), EncodeKey(value.NewInt(b))
		cmp := bytes.Compare(ka, kb)
		want := value.Compare(value.NewInt(a), value.NewInt(b))
		return cmp == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Float keys, in value.CompareFloats' order: −0 equals +0, and every
	// NaN equals every other and sorts below −Inf.
	g := func(a, b float64) bool {
		ka, kb := EncodeKey(value.NewFloat(a)), EncodeKey(value.NewFloat(b))
		return bytes.Compare(ka, kb) == value.Compare(value.NewFloat(a), value.NewFloat(b))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	specials := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(-1), -1e300, -1,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 1e300, math.Inf(1)}
	for _, a := range specials {
		for _, b := range specials {
			if !g(a, b) {
				t.Errorf("EncodeKey orders %v and %v unlike value.Compare", a, b)
			}
		}
	}
	// Strings and bools.
	if bytes.Compare(EncodeKey(value.NewString("a")), EncodeKey(value.NewString("b"))) >= 0 {
		t.Error("string keys")
	}
	if bytes.Compare(EncodeKey(value.NewBool(false)), EncodeKey(value.NewBool(true))) >= 0 {
		t.Error("bool keys")
	}
	if EncodeKey(value.NullValue()) != nil {
		t.Error("null key should be nil")
	}
}

func TestIndexedLookupReadsFewPages(t *testing.T) {
	tr, f := newTree(t)
	for i := 0; i < 20000; i++ {
		tr.Insert(EncodeKey(value.NewInt(int64(i))), uint64(i))
	}
	h, _ := tr.Height()
	f.ResetStats()
	vals, err := tr.Search(EncodeKey(value.NewInt(12345)))
	if err != nil || len(vals) != 1 {
		t.Fatalf("search: %v %v", vals, err)
	}
	reads := f.Stats().PageReads
	if reads > uint64(h)+2 {
		t.Errorf("point lookup read %d pages for height-%d tree", reads, h)
	}
}

func BenchmarkInsert(b *testing.B) {
	f, _ := pager.Create(filepath.Join(b.TempDir(), "bt.rdnt"), 4096)
	defer f.Close()
	tr, _ := New(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(EncodeKey(value.NewInt(int64(i))), uint64(i))
	}
}

func BenchmarkSearch(b *testing.B) {
	f, _ := pager.Create(filepath.Join(b.TempDir(), "bt.rdnt"), 4096)
	defer f.Close()
	tr, _ := New(f)
	for i := 0; i < 100000; i++ {
		tr.Insert(EncodeKey(value.NewInt(int64(i))), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(EncodeKey(value.NewInt(int64(i % 100000))))
	}
}

// TestBuildAnswersLikeInsert: a bulk-built tree and an insert-built one over
// the same entries — random keys with heavy duplicates, one key repeated
// across many leaves — answer every Search and Range with the same entries
// in key order, and the levels Build returns are exactly the pages it
// allocated, one run per level.
func TestBuildAnswersLikeInsert(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	type kv struct {
		key []byte
		val uint64
	}
	byKeyVal := func(a, b kv) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return int(a.val) - int(b.val)
	}
	for _, n := range []int{0, 1, 7, 300, 5000} {
		ins, f := newTree(t)
		var ents []kv
		for i := 0; i < n; i++ {
			var key []byte
			switch r.Intn(4) {
			case 0:
				key = []byte("dup")
			case 1:
				key = []byte(fmt.Sprintf("k%03d", r.Intn(20)))
			default:
				key = EncodeKey(value.NewInt(r.Int63n(1000) - 500))
			}
			ents = append(ents, kv{key, uint64(i)})
			if err := ins.Insert(key, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		sorted := slices.Clone(ents)
		slices.SortFunc(sorted, byKeyVal)
		keys := make([][]byte, n)
		vals := make([]uint64, n)
		for i, e := range sorted {
			keys[i], vals[i] = e.key, e.val
		}
		before := f.NumPages()
		built, levels, err := Build(f, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := built.Height()
		if n == 5000 && h < 3 {
			t.Fatalf("height %d: want internal levels above the leaves", h)
		}
		if len(levels) != h || levels[h-1] != (pager.Extent{Start: built.Root(), Count: 1}) {
			t.Fatalf("n=%d: levels %v for a tree of height %d rooted at %d", n, levels, h, built.Root())
		}
		var pages uint64
		for _, e := range levels {
			pages += e.Count
		}
		if want := f.NumPages() - before; pages != want {
			t.Fatalf("n=%d: levels hold %d pages, Build allocated %d", n, pages, want)
		}

		collect := func(tr *Tree, lo, hi []byte) []kv {
			var out []kv
			err := tr.Range(lo, hi, func(k []byte, v uint64) bool {
				if len(out) > 0 && bytes.Compare(out[len(out)-1].key, k) > 0 {
					t.Fatalf("n=%d: range [%x, %x] out of key order", n, lo, hi)
				}
				out = append(out, kv{slices.Clone(k), v})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(out, byKeyVal)
			return out
		}
		probes := [][]byte{nil, []byte("dup"), []byte("du"), []byte("k010"), []byte("zzz"), EncodeKey(value.NewInt(0))}
		for _, e := range ents {
			if r.Intn(20) == 0 {
				probes = append(probes, e.key)
			}
		}
		for i := 0; i < 200; i++ {
			lo, hi := probes[r.Intn(len(probes))], probes[r.Intn(len(probes))]
			if i%4 == 0 {
				hi = lo // Search's range
			}
			got, want := collect(built, lo, hi), collect(ins, lo, hi)
			if !slices.EqualFunc(got, want, func(a, b kv) bool { return byKeyVal(a, b) == 0 }) {
				t.Fatalf("n=%d: range [%x, %x]: built %d entries, insert-built %d", n, lo, hi, len(got), len(want))
			}
		}
	}
}
