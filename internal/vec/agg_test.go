package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/value"
)

// randInts builds a value column with nulls and extreme values, returning
// the typed data, the bitmap, and a boxed mirror for the oracle.
func randInts(r *rand.Rand, n int) ([]int64, *Bitmap, []value.Value) {
	xs := make([]int64, n)
	var nulls Bitmap
	boxed := make([]value.Value, n)
	pool := []int64{0, 1, -1, 5, -7, math.MaxInt64, math.MinInt64}
	for i := range xs {
		if r.Intn(7) == 0 {
			nulls.Set(i)
			boxed[i] = value.NullValue()
			continue
		}
		xs[i] = pool[r.Intn(len(pool))]
		boxed[i] = value.NewInt(xs[i])
	}
	return xs, &nulls, boxed
}

func randFloats(r *rand.Rand, n int) ([]float64, *Bitmap, []value.Value) {
	xs := make([]float64, n)
	var nulls Bitmap
	boxed := make([]value.Value, n)
	pool := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range xs {
		if r.Intn(7) == 0 {
			nulls.Set(i)
			boxed[i] = value.NullValue()
			continue
		}
		if r.Intn(2) == 0 {
			xs[i] = pool[r.Intn(len(pool))]
		} else {
			xs[i] = r.NormFloat64() * 100
		}
		boxed[i] = value.NewFloat(xs[i])
	}
	return xs, &nulls, boxed
}

func sels(r *rand.Rand, n int) [][]int32 {
	var half, all []int32
	for i := int32(0); i < int32(n); i++ {
		all = append(all, i)
		if r.Intn(2) == 0 {
			half = append(half, i)
		}
	}
	return [][]int32{nil, {}, half, all}
}

func TestUngroupedKernels(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const n = 201
	ixs, inulls, _ := randInts(r, n)
	fxs, fnulls, _ := randFloats(r, n)
	for _, sel := range sels(r, n) {
		idx := sel
		if idx == nil {
			idx = FillSel(nil, n)
		}
		// Oracles.
		var wsumI, wcount int64
		var wsumF float64
		var wminI, wmaxI int64
		var wminF, wmaxF float64
		var icount, fcount int64
		const running = 0.1 // the float sum continues a running sum
		wsumF = running
		for _, i := range idx {
			if !inulls.Get(int(i)) {
				if icount == 0 {
					wminI, wmaxI = ixs[i], ixs[i]
				} else {
					if ixs[i] < wminI {
						wminI = ixs[i]
					}
					if ixs[i] > wmaxI {
						wmaxI = ixs[i]
					}
				}
				wsumI += ixs[i]
				icount++
			}
			if !fnulls.Get(int(i)) {
				if fcount == 0 {
					wminF, wmaxF = fxs[i], fxs[i]
				} else {
					if value.CompareFloats(fxs[i], wminF) < 0 {
						wminF = fxs[i]
					}
					if value.CompareFloats(fxs[i], wmaxF) > 0 {
						wmaxF = fxs[i]
					}
				}
				wsumF += fxs[i]
				fcount++
			}
			wcount++
		}
		_ = wcount
		sum, count := SumInt64(ixs, inulls, sel)
		if sum != wsumI || count != icount {
			t.Fatalf("SumInt64(sel=%v): (%d,%d), want (%d,%d)", sel != nil, sum, count, wsumI, icount)
		}
		fsum, count := SumFloat64(running, fxs, fnulls, sel)
		if count != fcount || (fsum != wsumF && !(math.IsNaN(fsum) && math.IsNaN(wsumF))) {
			t.Fatalf("SumFloat64: (%v,%d), want (%v,%d)", fsum, count, wsumF, fcount)
		}
		mn, mx, count := MinMaxInt64(ixs, inulls, sel)
		if count != icount || (count > 0 && (mn != wminI || mx != wmaxI)) {
			t.Fatalf("MinMaxInt64: (%d,%d,%d), want (%d,%d,%d)", mn, mx, count, wminI, wmaxI, icount)
		}
		fmn, fmx, count := MinMaxFloat64(fxs, fnulls, sel)
		if count != fcount || (count > 0 && (value.CompareFloats(fmn, wminF) != 0 || value.CompareFloats(fmx, wmaxF) != 0)) {
			t.Fatalf("MinMaxFloat64: (%v,%v,%d), want (%v,%v,%d)", fmn, fmx, count, wminF, wmaxF, fcount)
		}
		if got := CountNonNull(n, inulls, sel); got != icount {
			t.Fatalf("CountNonNull: %d, want %d", got, icount)
		}
	}
	// No-null fast path.
	xs := []int64{3, 1, 2}
	if sum, count := SumInt64(xs, nil, nil); sum != 6 || count != 3 {
		t.Fatalf("SumInt64 no-null: %d,%d", sum, count)
	}
	if got := CountNonNull(3, nil, nil); got != 3 {
		t.Fatalf("CountNonNull no-null: %d", got)
	}
}

func TestGroupedKernels(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const n, ng = 150, 5
	ixs, inulls, _ := randInts(r, n)
	fxs, fnulls, _ := randFloats(r, n)
	allGids := make([]int32, n)
	for i := range allGids {
		allGids[i] = int32(r.Intn(ng))
	}
	for _, sel := range sels(r, n) {
		idx := sel
		if idx == nil {
			idx = FillSel(nil, n)
		}
		// gids are dense: one per selected row.
		gids := make([]int32, len(idx))
		for k, i := range idx {
			gids[k] = allGids[i]
		}
		wsumI := make([]int64, ng)
		wsumF := make([]float64, ng)
		wminI, wmaxI := make([]int64, ng), make([]int64, ng)
		wminF, wmaxF := make([]float64, ng), make([]float64, ng)
		icounts, fcounts, rcounts := make([]int64, ng), make([]int64, ng), make([]int64, ng)
		for k, i := range idx {
			g := gids[k]
			rcounts[g]++
			if !inulls.Get(int(i)) {
				if icounts[g] == 0 {
					wminI[g], wmaxI[g] = ixs[i], ixs[i]
				} else {
					if ixs[i] < wminI[g] {
						wminI[g] = ixs[i]
					}
					if ixs[i] > wmaxI[g] {
						wmaxI[g] = ixs[i]
					}
				}
				wsumI[g] += ixs[i]
				icounts[g]++
			}
			if !fnulls.Get(int(i)) {
				if fcounts[g] == 0 {
					wminF[g], wmaxF[g] = fxs[i], fxs[i]
				} else {
					if value.CompareFloats(fxs[i], wminF[g]) < 0 {
						wminF[g] = fxs[i]
					}
					if value.CompareFloats(fxs[i], wmaxF[g]) > 0 {
						wmaxF[g] = fxs[i]
					}
				}
				wsumF[g] += fxs[i]
				fcounts[g]++
			}
		}
		sums, counts := make([]int64, ng), make([]int64, ng)
		SumInt64Groups(ixs, inulls, sel, gids, sums, counts)
		for g := 0; g < ng; g++ {
			if sums[g] != wsumI[g] || counts[g] != icounts[g] {
				t.Fatalf("SumInt64Groups g%d: (%d,%d), want (%d,%d)", g, sums[g], counts[g], wsumI[g], icounts[g])
			}
		}
		fsums := make([]float64, ng)
		counts = make([]int64, ng)
		SumFloat64Groups(fxs, fnulls, sel, gids, fsums, counts)
		for g := 0; g < ng; g++ {
			if counts[g] != fcounts[g] || (fsums[g] != wsumF[g] && !(math.IsNaN(fsums[g]) && math.IsNaN(wsumF[g]))) {
				t.Fatalf("SumFloat64Groups g%d: (%v,%d), want (%v,%d)", g, fsums[g], counts[g], wsumF[g], fcounts[g])
			}
		}
		mins, maxs := make([]int64, ng), make([]int64, ng)
		counts = make([]int64, ng)
		MinMaxInt64Groups(ixs, inulls, sel, gids, mins, maxs, counts)
		for g := 0; g < ng; g++ {
			if counts[g] != icounts[g] || (counts[g] > 0 && (mins[g] != wminI[g] || maxs[g] != wmaxI[g])) {
				t.Fatalf("MinMaxInt64Groups g%d: (%d,%d,%d), want (%d,%d,%d)", g, mins[g], maxs[g], counts[g], wminI[g], wmaxI[g], icounts[g])
			}
		}
		fmins, fmaxs := make([]float64, ng), make([]float64, ng)
		counts = make([]int64, ng)
		MinMaxFloat64Groups(fxs, fnulls, sel, gids, fmins, fmaxs, counts)
		for g := 0; g < ng; g++ {
			if counts[g] != fcounts[g] {
				t.Fatalf("MinMaxFloat64Groups g%d count: %d, want %d", g, counts[g], fcounts[g])
			}
			if counts[g] > 0 && (value.CompareFloats(fmins[g], wminF[g]) != 0 || value.CompareFloats(fmaxs[g], wmaxF[g]) != 0) {
				t.Fatalf("MinMaxFloat64Groups g%d: (%v,%v), want (%v,%v)", g, fmins[g], fmaxs[g], wminF[g], wmaxF[g])
			}
		}
		counts = make([]int64, ng)
		CountRowsGroups(len(idx), nil, gids, counts)
		for g := 0; g < ng; g++ {
			if counts[g] != rcounts[g] {
				t.Fatalf("CountRowsGroups g%d: %d, want %d", g, counts[g], rcounts[g])
			}
		}
		counts = make([]int64, ng)
		CountNonNullGroups(n, inulls, sel, gids, counts)
		for g := 0; g < ng; g++ {
			if counts[g] != icounts[g] {
				t.Fatalf("CountNonNullGroups g%d: %d, want %d", g, counts[g], icounts[g])
			}
		}
	}
}

// TestGroupTableDistinctness: the group table must treat NaN == NaN and
// -0 == +0 for float keys, null == null for every kind, and distinguish
// everything else — matching value.Equal semantics exactly.
func TestGroupTableDistinctness(t *testing.T) {
	fs := value.MustSchema(value.Field{Name: "k", Type: value.Float})
	gt := NewGroupTable(fs)
	col := &Vector{}
	col.Reset(value.Float)
	vals := []float64{1.5, math.NaN(), math.Copysign(0, -1), 0, math.NaN(), 1.5, math.Inf(1)}
	for _, v := range vals {
		col.AppendFloat64(v)
	}
	col.Nulls.Set(len(vals) - 1) // reuse last slot as a null key too
	col.AppendFloat64(math.Inf(1))
	gids := gt.GroupIDs([]*Vector{col}, nil, col.Len(), nil)
	// groups: 1.5, NaN, 0 (-0 and +0 merge), null, +Inf
	if gt.Len() != 5 {
		t.Fatalf("distinct float groups: %d, want 5 (gids %v)", gt.Len(), gids)
	}
	if gids[1] != gids[4] {
		t.Errorf("NaN keys split: %v", gids)
	}
	if gids[2] != gids[3] {
		t.Errorf("-0 and +0 split: %v", gids)
	}
	if gids[0] != gids[5] {
		t.Errorf("equal 1.5 keys split: %v", gids)
	}

	// Multi-kind key: (str, int) pairs, with selection vector.
	ks := value.MustSchema(
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "i", Type: value.Int},
	)
	gt2 := NewGroupTable(ks)
	sc, ic := &Vector{}, &Vector{}
	sc.Reset(value.Str)
	ic.Reset(value.Int)
	pairs := []struct {
		s string
		i int64
	}{{"a", 1}, {"a", 2}, {"b", 1}, {"a", 1}, {"b", 1}}
	for _, p := range pairs {
		sc.AppendBytes([]byte(p.s))
		ic.AppendInt64(p.i)
	}
	sel := []int32{0, 1, 2, 3, 4}
	gids2 := gt2.GroupIDs([]*Vector{sc, ic}, sel, len(pairs), nil)
	if gt2.Len() != 3 {
		t.Fatalf("distinct pair groups: %d, want 3", gt2.Len())
	}
	if gids2[0] != gids2[3] || gids2[2] != gids2[4] || gids2[0] == gids2[1] {
		t.Errorf("pair gids: %v", gids2)
	}
	// Keys() holds one representative row per group, in first-seen order.
	keys := gt2.Keys()
	if keys.Len() != 3 {
		t.Fatalf("keys: %d rows", keys.Len())
	}
	if got := keys.Row(0); got[0].Str() != "a" || got[0].Kind() != value.Str || got[1].Int() != 1 {
		t.Errorf("group 0 key: %v", got)
	}
}

func TestCanonicalFloatBits(t *testing.T) {
	if CanonicalFloatBits(0) != CanonicalFloatBits(math.Copysign(0, -1)) {
		t.Error("-0 and +0 hash differently")
	}
	n1 := math.NaN()
	n2 := math.Float64frombits(math.Float64bits(n1) ^ 1) // different NaN payload
	if !math.IsNaN(n2) {
		t.Fatal("payload flip left NaN range")
	}
	if CanonicalFloatBits(n1) != CanonicalFloatBits(n2) {
		t.Error("NaN payloads hash differently")
	}
	if CanonicalFloatBits(1.5) == CanonicalFloatBits(-1.5) {
		t.Error("1.5 and -1.5 collide")
	}
}

// groupOracle numbers keys in first-seen order, as a map does: the
// specification GroupIDs is held to. A null key is its own group.
type groupOracle struct {
	ids  map[oracleKey]int32
	keys []oracleKey
}

type oracleKey struct {
	null bool
	s    string
}

func (o *groupOracle) id(k oracleKey) int32 {
	if o.ids == nil {
		o.ids = make(map[oracleKey]int32)
	}
	id, ok := o.ids[k]
	if !ok {
		id = int32(len(o.keys))
		o.ids[k] = id
		o.keys = append(o.keys, k)
	}
	return id
}

// randKeys draws n keys from a pool of distinct byte strings, among them
// the empty key and keys longer than 32 bytes, so rows repeat keys.
func randKeys(r *rand.Rand, n, distinct int) []string {
	pool := []string{""}
	for len(pool) < distinct {
		b := make([]byte, r.Intn(70))
		for i := range b {
			b[i] = byte('a' + r.Intn(3))
		}
		pool = append(pool, string(b))
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = pool[r.Intn(len(pool))]
	}
	return keys
}

// flatKeys is a flat column of keys; a row is null where nulls says so.
func flatKeys(k value.Kind, keys []string, nulls []bool) *Vector {
	v := &Vector{}
	v.Reset(k)
	for i, s := range keys {
		if nulls != nil && nulls[i] {
			v.AppendNull()
		} else {
			v.AppendBytes([]byte(s))
		}
	}
	return v
}

// dictKeys is a dictionary-form column of keys whose dictionary holds every
// distinct key once plus `extra` unnamed entries.
func dictKeys(k value.Kind, keys []string, extra int) *Vector {
	v := &Vector{}
	v.Reset(k)
	v.Offs = append(v.Offs, 0)
	entry := map[string]uint32{}
	for _, s := range keys {
		e, ok := entry[s]
		if !ok {
			e = uint32(len(v.Offs) - 1)
			entry[s] = e
			v.Data = append(v.Data, s...)
			v.Offs = append(v.Offs, uint64(len(v.Data)))
		}
		v.Codes = append(v.Codes, e)
	}
	for x := 0; x < extra; x++ {
		v.Data = append(v.Data, fmt.Sprint("unnamed-", x)...)
		v.Offs = append(v.Offs, uint64(len(v.Data)))
	}
	v.SyncLen()
	return v
}

// requireOracle feeds one block of keys to g and to the oracle and requires
// the same ids, and the same stored keys in the same order.
func requireOracle(t *testing.T, what string, g *GroupTable, o *groupOracle, col *Vector, keys []string, nulls []bool, sel []int32) {
	t.Helper()
	got := g.GroupIDs([]*Vector{col}, sel, len(keys), nil)
	var want []int32
	row := func(i int) {
		k := oracleKey{s: keys[i]}
		if nulls != nil && nulls[i] {
			k = oracleKey{null: true}
		}
		want = append(want, o.id(k))
	}
	if sel == nil {
		for i := range keys {
			row(i)
		}
	} else {
		for _, i := range sel {
			row(int(i))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: group ids\n got %v\nwant %v", what, got, want)
	}
	kc := &g.Keys().Cols[0]
	if g.Len() != len(o.keys) {
		t.Fatalf("%s: %d groups, oracle %d", what, g.Len(), len(o.keys))
	}
	for id, k := range o.keys {
		if kc.IsNull(id) != k.null || !k.null && string(kc.BytesAt(id)) != k.s {
			t.Fatalf("%s: group %d stores (null %v) %q, oracle (null %v) %q", what, id, kc.IsNull(id), kc.BytesAt(id), k.null, k.s)
		}
	}
}

// TestGroupIDsFlatMatchesOracle holds GroupIDs over one Str/Bytes key
// column, whose flat null-free form takes a loop of its own, to a
// first-seen map: random keys (the empty key and keys over 32 bytes among
// them), with and without a selection, a column with nulls (the row-by-row
// path), and one table fed flat, dictionary-form and flat blocks of
// overlapping keys in turn, so every path's key hash must agree.
func TestGroupIDsFlatMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, k := range []value.Kind{value.Str, value.Bytes} {
		schema := value.MustSchema(value.Field{Name: "k", Type: k})
		for _, shape := range []struct{ rows, distinct int }{{0, 1}, {1, 1}, {50, 3}, {400, 40}, {3000, 900}} {
			keys := randKeys(r, shape.rows, shape.distinct)
			for si, sel := range sels(r, shape.rows) {
				what := fmt.Sprintf("%v/%d rows/%d keys/sel#%d", k, shape.rows, shape.distinct, si)
				requireOracle(t, what+" flat", NewGroupTable(schema), &groupOracle{}, flatKeys(k, keys, nil), keys, nil, sel)

				nulls := make([]bool, len(keys))
				for i := range nulls {
					nulls[i] = r.Intn(5) == 0
				}
				requireOracle(t, what+" nulls", NewGroupTable(schema), &groupOracle{}, flatKeys(k, keys, nulls), keys, nulls, sel)

				// One table, blocks of overlapping keys in each form: the
				// by-code path (few entries), the per-row path over a
				// dictionary larger than the block, and a null block between.
				g, o := NewGroupTable(schema), &groupOracle{}
				for b, form := range []string{"flat", "dict", "flat", "bigdict", "nulls", "flat"} {
					bk := randKeys(r, shape.rows, shape.distinct)
					copy(bk, keys[:len(bk)/2])
					var col *Vector
					var bn []bool
					switch form {
					case "flat":
						col = flatKeys(k, bk, nil)
					case "dict":
						col = dictKeys(k, bk, 0)
					case "bigdict":
						col = dictKeys(k, bk, shape.rows+1)
					case "nulls":
						bn = make([]bool, len(bk))
						for i := range bn {
							bn[i] = r.Intn(3) == 0
						}
						col = flatKeys(k, bk, bn)
					}
					requireOracle(t, fmt.Sprintf("%s mixed block %d (%s)", what, b, form), g, o, col, bk, bn, sel)
				}
			}
		}
	}
}
