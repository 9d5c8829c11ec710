package vec

// Vectorized aggregate kernels: tight typed loops computing sum/min/max/
// count over the Int64s/Float64s representations, null-bitmap- and
// selection-vector-aware, in both ungrouped (scalar accumulator) and
// grouped (accumulator-per-group-id) forms; plus GroupTable, the hash
// GROUP BY operator that assigns dense group ids to distinct typed key
// tuples without boxing cells.
//
// Every kernel takes the column slice, the null bitmap (nil or empty means
// all-valid, skipping the per-row check) and a selection vector (nil means
// all rows [0, len)). Grouped kernels additionally take gids, the dense
// group id of each *selected* row: gids[k] belongs to row sel[k] (or row k
// when sel is nil). Min/max over floats use value.CompareFloats ordering so
// results match the boxed executor's value.Compare exactly (NaN sorts
// before everything, including -Inf).

import (
	"bytes"
	"math"
	"slices"

	"rodentstore/internal/value"
)

// SumInt64 returns the wrapping int64 sum and the count of non-null
// selected rows.
func SumInt64(xs []int64, nulls *Bitmap, sel []int32) (sum, count int64) {
	if nulls != nil && nulls.Any() {
		if sel == nil {
			for i, x := range xs {
				if !nulls.Get(i) {
					sum += x
					count++
				}
			}
			return sum, count
		}
		for _, i := range sel {
			if !nulls.Get(int(i)) {
				sum += xs[i]
				count++
			}
		}
		return sum, count
	}
	if sel == nil {
		for _, x := range xs {
			sum += x
		}
		return sum, int64(len(xs))
	}
	for _, i := range sel {
		sum += xs[i]
	}
	return sum, int64(len(sel))
}

// SumFloat64 adds the non-null selected rows to the running sum, left to
// right in IEEE float64, and returns it with the count of rows added.
func SumFloat64(sum float64, xs []float64, nulls *Bitmap, sel []int32) (float64, int64) {
	var count int64
	if nulls != nil && nulls.Any() {
		if sel == nil {
			for i, x := range xs {
				if !nulls.Get(i) {
					sum += x
					count++
				}
			}
			return sum, count
		}
		for _, i := range sel {
			if !nulls.Get(int(i)) {
				sum += xs[i]
				count++
			}
		}
		return sum, count
	}
	if sel == nil {
		for _, x := range xs {
			sum += x
		}
		return sum, int64(len(xs))
	}
	for _, i := range sel {
		sum += xs[i]
	}
	return sum, int64(len(sel))
}

// MinMaxInt64 returns the min and max of the non-null selected rows and
// their count; min/max are meaningful only when count > 0.
func MinMaxInt64(xs []int64, nulls *Bitmap, sel []int32) (min, max, count int64) {
	min, max = math.MaxInt64, math.MinInt64
	hasNulls := nulls != nil && nulls.Any()
	if sel == nil {
		for i, x := range xs {
			if hasNulls && nulls.Get(i) {
				continue
			}
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
			count++
		}
		return min, max, count
	}
	for _, i := range sel {
		if hasNulls && nulls.Get(int(i)) {
			continue
		}
		x := xs[i]
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		count++
	}
	return min, max, count
}

// MinMaxFloat64 returns the min and max (value.CompareFloats ordering) of
// the non-null selected rows and their count.
func MinMaxFloat64(xs []float64, nulls *Bitmap, sel []int32) (min, max float64, count int64) {
	hasNulls := nulls != nil && nulls.Any()
	update := func(x float64) {
		if count == 0 {
			min, max = x, x
		} else {
			if value.CompareFloats(x, min) < 0 {
				min = x
			}
			if value.CompareFloats(x, max) > 0 {
				max = x
			}
		}
		count++
	}
	if sel == nil {
		for i, x := range xs {
			if hasNulls && nulls.Get(i) {
				continue
			}
			update(x)
		}
		return min, max, count
	}
	for _, i := range sel {
		if hasNulls && nulls.Get(int(i)) {
			continue
		}
		update(xs[i])
	}
	return min, max, count
}

// CountNonNull counts the non-null selected rows of a vector of length n.
func CountNonNull(n int, nulls *Bitmap, sel []int32) int64 {
	if nulls == nil || !nulls.Any() {
		if sel == nil {
			return int64(n)
		}
		return int64(len(sel))
	}
	var count int64
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) {
				count++
			}
		}
		return count
	}
	for _, i := range sel {
		if !nulls.Get(int(i)) {
			count++
		}
	}
	return count
}

// SumInt64Groups accumulates per-group wrapping sums and non-null counts.
// sums and counts are indexed by group id.
func SumInt64Groups(xs []int64, nulls *Bitmap, sel []int32, gids []int32, sums, counts []int64) {
	hasNulls := nulls != nil && nulls.Any()
	if sel == nil {
		for i, x := range xs {
			if hasNulls && nulls.Get(i) {
				continue
			}
			g := gids[i]
			sums[g] += x
			counts[g]++
		}
		return
	}
	for k, i := range sel {
		if hasNulls && nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		sums[g] += xs[i]
		counts[g]++
	}
}

// SumFloat64Groups accumulates per-group float sums and non-null counts.
func SumFloat64Groups(xs []float64, nulls *Bitmap, sel []int32, gids []int32, sums []float64, counts []int64) {
	hasNulls := nulls != nil && nulls.Any()
	if sel == nil {
		for i, x := range xs {
			if hasNulls && nulls.Get(i) {
				continue
			}
			g := gids[i]
			sums[g] += x
			counts[g]++
		}
		return
	}
	for k, i := range sel {
		if hasNulls && nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		sums[g] += xs[i]
		counts[g]++
	}
}

// MinMaxInt64Groups folds per-group min/max and non-null counts; mins[g]
// and maxs[g] are meaningful only when counts[g] > 0 on return.
func MinMaxInt64Groups(xs []int64, nulls *Bitmap, sel []int32, gids []int32, mins, maxs, counts []int64) {
	hasNulls := nulls != nil && nulls.Any()
	step := func(k, i int) {
		if hasNulls && nulls.Get(i) {
			return
		}
		g := gids[k]
		x := xs[i]
		if counts[g] == 0 {
			mins[g], maxs[g] = x, x
		} else {
			if x < mins[g] {
				mins[g] = x
			}
			if x > maxs[g] {
				maxs[g] = x
			}
		}
		counts[g]++
	}
	if sel == nil {
		for i := range xs {
			step(i, i)
		}
		return
	}
	for k, i := range sel {
		step(k, int(i))
	}
}

// MinMaxFloat64Groups folds per-group min/max (value.CompareFloats
// ordering) and non-null counts.
func MinMaxFloat64Groups(xs []float64, nulls *Bitmap, sel []int32, gids []int32, mins, maxs []float64, counts []int64) {
	hasNulls := nulls != nil && nulls.Any()
	step := func(k, i int) {
		if hasNulls && nulls.Get(i) {
			return
		}
		g := gids[k]
		x := xs[i]
		if counts[g] == 0 {
			mins[g], maxs[g] = x, x
		} else {
			if value.CompareFloats(x, mins[g]) < 0 {
				mins[g] = x
			}
			if value.CompareFloats(x, maxs[g]) > 0 {
				maxs[g] = x
			}
		}
		counts[g]++
	}
	if sel == nil {
		for i := range xs {
			step(i, i)
		}
		return
	}
	for k, i := range sel {
		step(k, int(i))
	}
}

// CountRowsGroups counts selected rows per group (the count(*) kernel).
func CountRowsGroups(n int, sel []int32, gids []int32, counts []int64) {
	if sel == nil {
		for i := 0; i < n; i++ {
			counts[gids[i]]++
		}
		return
	}
	for k := range sel {
		counts[gids[k]]++
	}
}

// CountNonNullGroups counts non-null selected rows per group.
func CountNonNullGroups(n int, nulls *Bitmap, sel []int32, gids []int32, counts []int64) {
	if nulls == nil || !nulls.Any() {
		CountRowsGroups(n, sel, gids, counts)
		return
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if !nulls.Get(i) {
				counts[gids[i]]++
			}
		}
		return
	}
	for k, i := range sel {
		if !nulls.Get(int(i)) {
			counts[gids[k]]++
		}
	}
}

// GroupTable assigns dense group ids (0, 1, 2, ... in first-seen order) to
// distinct key tuples over typed key columns, and stores each group's key
// values for output. Equality follows value.Compare within a column's kind:
// floats compare NaN == NaN and -0 == +0 (key hashing canonicalizes both),
// null equals null, strings/bytes compare by content.
type GroupTable struct {
	keys *Batch
	// slots is the open-addressed index over the groups: a slot holds a
	// group id + 1 (0 = empty), probed linearly from the tuple hash, at most
	// half full. hashes[g] is group g's tuple hash: the first equality test
	// of a probe and what growing the index re-inserts.
	slots  []int32
	hashes []uint64
	// Scratch of one GroupIDs call over dictionary-form key columns:
	// entryGID[e] is the group of the single key column's entry e (-1 until
	// a row names it), entryHash[c][e] the cell hash of key column c's
	// entry e (empty when column c is hashed row by row).
	entryGID  []int32
	entryHash [][]uint64
}

// NewGroupTable creates a table for key tuples of the given schema.
func NewGroupTable(keySchema *value.Schema) *GroupTable {
	return &GroupTable{keys: NewBatch(keySchema), slots: make([]int32, 64)}
}

// Len returns the number of distinct groups seen.
func (g *GroupTable) Len() int { return g.keys.Len() }

// Keys returns the stored key tuples: row i of the batch is group i's key.
// The batch belongs to the table; callers must not mutate it.
func (g *GroupTable) Keys() *Batch { return g.keys }

// GroupIDs assigns a group id to each selected row of the key columns
// (cols parallel to the key schema, each of length n), creating groups on
// first sight, and appends the dense ids to gids (reused; pass gids[:0]).
//
// A dictionary-form key column is resolved per entry, not per row: a single
// key column looks each entry up once and then assigns rows by code; with
// several key columns each entry's bytes are hashed once.
func (g *GroupTable) GroupIDs(cols []*Vector, sel []int32, n int, gids []int32) []int32 {
	rows := n
	if sel != nil {
		rows = len(sel)
	}
	gids = slices.Grow(gids, rows)
	byCode := len(cols) == 1 && len(cols[0].Codes) != 0 && cols[0].Entries() <= rows
	g.entryHash = slices.Grow(g.entryHash[:0], len(cols))[:len(cols)]
	for c, col := range cols {
		eh := g.entryHash[c][:0]
		if !byCode && len(col.Codes) != 0 && col.Entries() <= rows {
			for e := range col.Entries() {
				eh = append(eh, hashBytes(col.Entry(e)))
			}
		}
		g.entryHash[c] = eh
	}
	if byCode {
		return g.groupIDsByCode(cols, sel, n, gids)
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			gids = append(gids, g.groupID(cols, i))
		}
		return gids
	}
	for _, i := range sel {
		gids = append(gids, g.groupID(cols, int(i)))
	}
	return gids
}

// groupIDsByCode is GroupIDs over one dictionary-form key column: an entry
// is looked up when the first selected row names it — so groups appear in
// the same first-seen order as row-by-row assignment, and entries no
// selected row names create no group — and every later row naming it costs
// one load. Null rows name no entry and take the row-by-row lookup.
func (g *GroupTable) groupIDsByCode(cols []*Vector, sel []int32, n int, gids []int32) []int32 {
	col := cols[0]
	byEntry := g.entryGID[:0]
	for range col.Entries() {
		byEntry = append(byEntry, -1)
	}
	g.entryGID = byEntry
	codes, nulls := col.Codes, col.Nulls.Any()
	if sel == nil {
		for i, c := range codes[:n] {
			id := byEntry[c]
			if nulls && col.Nulls.Get(i) {
				id = g.groupID(cols, i)
			} else if id < 0 {
				id = g.groupID(cols, i)
				byEntry[c] = id
			}
			gids = append(gids, id)
		}
		return gids
	}
	for _, i := range sel {
		c := codes[i]
		id := byEntry[c]
		if nulls && col.Nulls.Get(int(i)) {
			id = g.groupID(cols, int(i))
		} else if id < 0 {
			id = g.groupID(cols, int(i))
			byEntry[c] = id
		}
		gids = append(gids, id)
	}
	return gids
}

// groupID finds or inserts the key tuple at row i.
func (g *GroupTable) groupID(cols []*Vector, i int) int32 {
	h := g.hashRow(cols, i)
	mask := uint64(len(g.slots) - 1)
	p := h & mask
	for ; g.slots[p] != 0; p = (p + 1) & mask {
		if id := g.slots[p] - 1; g.hashes[id] == h && g.equalRow(cols, i, int(id)) {
			return id
		}
	}
	id := int32(g.keys.Len())
	for c, col := range cols {
		kc := &g.keys.Cols[c]
		if col.Nulls.Get(i) {
			kc.AppendNull()
			continue
		}
		switch native(col.kind) {
		case value.Int:
			kc.AppendInt64(col.Int64s[i])
		case value.Float:
			kc.AppendFloat64(col.Float64s[i])
		case value.Bytes:
			kc.AppendBytes(col.BytesAt(i))
		default:
			kc.Boxed = append(kc.Boxed, col.Boxed[i])
			kc.n++
		}
	}
	g.keys.n++
	g.hashes = append(g.hashes, h)
	g.slots[p] = id + 1
	if 2*len(g.hashes) > len(g.slots) {
		g.slots = make([]int32, 2*len(g.slots))
		mask = uint64(len(g.slots) - 1)
		for id, h := range g.hashes {
			p := h & mask
			for g.slots[p] != 0 {
				p = (p + 1) & mask
			}
			g.slots[p] = int32(id) + 1
		}
	}
	return id
}

// hashRow hashes the key tuple at row i of cols. Cell hashes mirror the
// equality rules: float -0 and NaN are canonicalized, nulls hash to a tag.
func (g *GroupTable) hashRow(cols []*Vector, i int) uint64 {
	var h uint64 = 14695981039346656037 // FNV-64 offset basis
	for c, col := range cols {
		h = mix64(h, hashCell(col, i, g.entryHash[c]))
	}
	return h
}

// hashCell hashes row i of col; entryHash, when non-empty, holds the hashes
// of a dictionary-form column's entries.
func hashCell(col *Vector, i int, entryHash []uint64) uint64 {
	if col.Nulls.Get(i) {
		return 0x9e3779b97f4a7c15
	}
	switch native(col.kind) {
	case value.Int:
		return splitmix64(uint64(col.Int64s[i]))
	case value.Float:
		return splitmix64(CanonicalFloatBits(col.Float64s[i]))
	case value.Bytes:
		if len(entryHash) != 0 {
			return entryHash[col.Codes[i]]
		}
		return hashBytes(col.BytesAt(i))
	default:
		return col.Boxed[i].Hash()
	}
}

// CanonicalFloatBits returns hash-stable bits for a float key: -0 maps to
// +0 and every NaN payload to one canonical NaN, matching
// value.CompareFloats equality.
func CanonicalFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// equalRow compares the key tuple at row i of cols with stored group gid.
func (g *GroupTable) equalRow(cols []*Vector, i, gid int) bool {
	for c, col := range cols {
		kc := &g.keys.Cols[c]
		ln, rn := col.Nulls.Get(i), kc.Nulls.Get(gid)
		if ln != rn {
			return false
		}
		if ln {
			continue
		}
		switch native(col.kind) {
		case value.Int:
			if col.Int64s[i] != kc.Int64s[gid] {
				return false
			}
		case value.Float:
			if value.CompareFloats(col.Float64s[i], kc.Float64s[gid]) != 0 {
				return false
			}
		case value.Bytes:
			if !bytes.Equal(col.BytesAt(i), kc.BytesAt(gid)) {
				return false
			}
		default:
			if !value.Equal(col.Boxed[i], kc.Boxed[gid]) {
				return false
			}
		}
	}
	return true
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64 folds a cell hash into a running tuple hash.
func mix64(h, x uint64) uint64 { return splitmix64(h ^ x) }

// hashBytes is FNV-1a over a byte string.
func hashBytes(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
