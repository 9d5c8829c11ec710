// Package vec implements typed column batches for vectorized scan
// execution. A Vector holds one column of a block in an unboxed, kind-native
// representation (int64s, float64s, a byte arena) plus a null bitmap; a
// Batch groups the vectors of one block under a schema; a selection vector
// ([]int32 of surviving row indexes) carries filter results between
// operators without materializing rows.
//
// This is the MonetDB/C-Store execution style the paper's DSM motivation
// leans on: codecs decode straight into vectors (no value.Value interface
// boxing per cell), predicates run column-at-a-time over the typed slices,
// and only the selected rows of projected columns are materialized.
//
// Vectors and batches are designed for reuse: Reset keeps the underlying
// buffers, and Pool recycles whole batches across blocks and goroutines.
package vec

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"rodentstore/internal/value"
)

// Bitmap is a null bitmap: bit i set means row i is null. The zero Bitmap
// is empty (no nulls) and ready to use.
type Bitmap struct {
	bits []uint64
	set  int
}

// Reset clears the bitmap for reuse, keeping its buffer.
func (b *Bitmap) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.set = 0
}

// Set marks row i null, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for len(b.bits) <= w {
		b.bits = append(b.bits, 0)
	}
	if b.bits[w]&(1<<(i&63)) == 0 {
		b.bits[w] |= 1 << (i & 63)
		b.set++
	}
}

// Get reports whether row i is null.
func (b *Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(b.bits) {
		return false
	}
	return b.bits[w]&(1<<(i&63)) != 0
}

// Any reports whether any bit is set. Filters use it to skip the per-row
// null check on the (typical) all-valid vector.
func (b *Bitmap) Any() bool { return b.set > 0 }

// Vector is one column of a batch in the kind-native representation:
//
//	Int, Bool   -> Int64s (Bool stored 0/1)
//	Float       -> Float64s
//	Str, Bytes  -> Data arena + Offs, one arena entry per row (flat form),
//	               or one entry per distinct value + Codes (dictionary form)
//	List, other -> Boxed (value.Value fallback)
//
// Null rows carry the representation's zero value and a set bit in Nulls.
// Read Str/Bytes rows through BytesAt, which hides the form; a dict[...]
// column stays in dictionary form from decode through filter, gather,
// group-by and boxing, and Append* onto it materializes the flat form.
// The typed slices are exported so codec fast paths can decode into them
// directly; call SyncLen afterwards to restore the row count invariant.
type Vector struct {
	kind value.Kind

	// Int64s holds Int and Bool columns (Bool as 0/1).
	Int64s []int64
	// Float64s holds Float columns.
	Float64s []float64
	// Data and Offs hold the arena of Str and Bytes columns: entry e is
	// Data[Offs[e]:Offs[e+1]], and Offs has one more element than there are
	// entries (Offs[0] == 0). With Codes empty, row i is entry i.
	Data []byte
	Offs []uint64
	// Codes, when non-empty, puts the column in dictionary form: row i is
	// entry Codes[i]. Every code indexes one of the len(Offs)-1 entries
	// (a null row's code is any of them) and Len() == len(Codes).
	Codes []uint32
	// Boxed holds kinds without a native representation (List).
	Boxed []value.Value
	// Nulls marks null rows.
	Nulls Bitmap

	// memo caches each dictionary entry's boxed value, so Value allocates
	// once per entry rather than once per row; the Null zero value marks an
	// entry not boxed yet.
	memo []value.Value

	n int
}

// Reset clears the vector for reuse as a column of kind k, keeping buffers.
func (v *Vector) Reset(k value.Kind) {
	v.kind = k
	v.Int64s = v.Int64s[:0]
	v.Float64s = v.Float64s[:0]
	v.Data = v.Data[:0]
	v.Offs = v.Offs[:0]
	v.Codes = v.Codes[:0]
	v.Boxed = v.Boxed[:0]
	v.memo = v.memo[:0]
	v.Nulls.Reset()
	v.n = 0
}

// Kind returns the column kind.
func (v *Vector) Kind() value.Kind { return v.kind }

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// IsNull reports whether row i is null.
func (v *Vector) IsNull(i int) bool { return v.Nulls.Get(i) }

// native reports which representation the kind uses.
func native(k value.Kind) value.Kind {
	switch k {
	case value.Int, value.Bool:
		return value.Int
	case value.Float:
		return value.Float
	case value.Str, value.Bytes:
		return value.Bytes
	default:
		return value.List // boxed
	}
}

// SyncLen recomputes the row count from the active representation after a
// codec decoded into the exported slices directly.
func (v *Vector) SyncLen() {
	switch native(v.kind) {
	case value.Int:
		v.n = len(v.Int64s)
	case value.Float:
		v.n = len(v.Float64s)
	case value.Bytes:
		if len(v.Codes) != 0 {
			v.n = len(v.Codes)
		} else {
			v.n = v.Entries()
		}
	default:
		v.n = len(v.Boxed)
	}
}

// Grow reserves room for n more rows in the column's per-row slices, so a
// column filled from many batches is not copied as it grows (a Str/Bytes
// arena still grows with what it holds).
func (v *Vector) Grow(n int) {
	switch native(v.kind) {
	case value.Int:
		v.Int64s = slices.Grow(v.Int64s, n)
	case value.Float:
		v.Float64s = slices.Grow(v.Float64s, n)
	case value.Bytes:
		v.Offs = slices.Grow(v.Offs, n+1)
	default:
		v.Boxed = slices.Grow(v.Boxed, n)
	}
}

// AppendInt64 appends one Int/Bool row.
func (v *Vector) AppendInt64(x int64) {
	v.Int64s = append(v.Int64s, x)
	v.n++
}

// AppendFloat64 appends one Float row.
func (v *Vector) AppendFloat64(x float64) {
	v.Float64s = append(v.Float64s, x)
	v.n++
}

// AppendBytes appends one Str/Bytes row, copying b into the arena.
func (v *Vector) AppendBytes(b []byte) {
	v.materialize()
	if len(v.Offs) == 0 {
		v.Offs = append(v.Offs, 0)
	}
	v.Data = append(v.Data, b...)
	v.Offs = append(v.Offs, uint64(len(v.Data)))
	v.n++
}

// BytesAt returns the arena slice of row i (aliasing the arena).
func (v *Vector) BytesAt(i int) []byte {
	if len(v.Codes) != 0 {
		i = int(v.Codes[i])
	}
	return v.Data[v.Offs[i]:v.Offs[i+1]]
}

// Entries returns the number of arena entries of a Str/Bytes column: the
// dictionary size in dictionary form, the row count in flat form.
func (v *Vector) Entries() int {
	if len(v.Offs) == 0 {
		return 0
	}
	return len(v.Offs) - 1
}

// Entry returns arena entry e (aliasing the arena). Kernels over a
// dictionary-form column evaluate once per entry and then go by Codes.
func (v *Vector) Entry(e int) []byte { return v.Data[v.Offs[e]:v.Offs[e+1]] }

// materialize rewrites a dictionary-form column into the flat form in
// place; appending rows needs it, since a new row's bytes may be no entry
// of the dictionary.
func (v *Vector) materialize() {
	if len(v.Codes) == 0 {
		return
	}
	data := make([]byte, 0, len(v.Data))
	offs := make([]uint64, 1, len(v.Codes)+1)
	for i, c := range v.Codes {
		if !v.Nulls.Get(i) {
			data = append(data, v.Entry(int(c))...)
		}
		offs = append(offs, uint64(len(data)))
	}
	v.Data, v.Offs, v.Codes = data, offs, v.Codes[:0]
	v.memo = v.memo[:0]
}

// AppendNull appends a null row (representation zero value + null bit).
func (v *Vector) AppendNull() {
	switch native(v.kind) {
	case value.Int:
		v.Int64s = append(v.Int64s, 0)
	case value.Float:
		v.Float64s = append(v.Float64s, 0)
	case value.Bytes:
		v.materialize()
		if len(v.Offs) == 0 {
			v.Offs = append(v.Offs, 0)
		}
		v.Offs = append(v.Offs, uint64(len(v.Data)))
	default:
		v.Boxed = append(v.Boxed, value.NullValue())
	}
	v.Nulls.Set(v.n)
	v.n++
}

// AppendValue appends one boxed value, unboxing into the native
// representation: the bridge from row-at-a-time code (FromRows, the
// optimizer's codec probe).
func (v *Vector) AppendValue(val value.Value) error {
	if val.IsNull() {
		v.AppendNull()
		return nil
	}
	switch native(v.kind) {
	case value.Int:
		switch val.Kind() {
		case value.Int, value.Bool:
			v.AppendInt64(val.Int())
		default:
			return fmt.Errorf("vec: cannot append %s to %s column", val.Kind(), v.kind)
		}
	case value.Float:
		switch val.Kind() {
		case value.Float, value.Int:
			v.AppendFloat64(val.Float())
		default:
			return fmt.Errorf("vec: cannot append %s to %s column", val.Kind(), v.kind)
		}
	case value.Bytes:
		switch val.Kind() {
		case value.Str:
			v.AppendBytes([]byte(val.Str()))
		case value.Bytes:
			v.AppendBytes(val.Bytes())
		default:
			return fmt.Errorf("vec: cannot append %s to %s column", val.Kind(), v.kind)
		}
	default:
		v.Boxed = append(v.Boxed, val)
		v.n++
	}
	return nil
}

// Value boxes row i back into a value.Value (the late-materialization step).
// On a dictionary-form column each entry is boxed once and the rows naming
// it share that value — as the boxed Dict decoder's rows always have — which
// makes Value a write to the vector there: box one batch from one goroutine.
func (v *Vector) Value(i int) value.Value {
	if v.Nulls.Get(i) {
		return value.NullValue()
	}
	switch native(v.kind) {
	case value.Int:
		if v.kind == value.Bool {
			return value.NewBool(v.Int64s[i] != 0)
		}
		return value.NewInt(v.Int64s[i])
	case value.Float:
		return value.NewFloat(v.Float64s[i])
	case value.Bytes:
		if len(v.Codes) == 0 {
			return v.boxBytes(v.Entry(i))
		}
		c := v.Codes[i]
		if len(v.memo) == 0 {
			v.memo = append(v.memo, make([]value.Value, v.Entries())...)
		}
		if v.memo[c].IsNull() {
			v.memo[c] = v.boxBytes(v.Entry(int(c)))
		}
		return v.memo[c]
	default:
		return v.Boxed[i]
	}
}

// boxInto boxes the rows of v at sel into dst[0], dst[stride], ... — one
// column of a row-major slab — with the kind's loop chosen once.
func (v *Vector) boxInto(dst []value.Value, stride int, sel []int32) {
	if v.Nulls.Any() {
		for k, i := range sel {
			dst[k*stride] = v.Value(int(i))
		}
		return
	}
	switch v.kind {
	case value.Int:
		for k, i := range sel {
			dst[k*stride] = value.NewInt(v.Int64s[i])
		}
	case value.Float:
		for k, i := range sel {
			dst[k*stride] = value.NewFloat(v.Float64s[i])
		}
	default:
		for k, i := range sel {
			dst[k*stride] = v.Value(int(i))
		}
	}
}

// boxBytes boxes one arena slice as the column's kind, copying it.
func (v *Vector) boxBytes(b []byte) value.Value {
	if v.kind == value.Str {
		return value.NewString(string(b))
	}
	return value.NewBytes(bytes.Clone(b))
}

// CopyFrom makes v a copy of src, in src's form, that shares no memory with
// it; v's buffers are reused. A cache hands out its immutable vectors this
// way, so no batch ever aliases what the cache holds.
func (v *Vector) CopyFrom(src *Vector) {
	v.kind, v.n = src.kind, src.n
	v.Int64s = append(v.Int64s[:0], src.Int64s...)
	v.Float64s = append(v.Float64s[:0], src.Float64s...)
	v.Data = append(v.Data[:0], src.Data...)
	v.Offs = append(v.Offs[:0], src.Offs...)
	v.Codes = append(v.Codes[:0], src.Codes...)
	v.Boxed = append(v.Boxed[:0], src.Boxed...)
	v.memo = v.memo[:0]
	v.Nulls.bits = append(v.Nulls.bits[:0], src.Nulls.bits...)
	v.Nulls.set = src.Nulls.set
}

// Size returns the bytes v's rows occupy in their representation (a boxed
// row counts its value.Value, not what the value points to).
func (v *Vector) Size() int {
	return 8*(len(v.Int64s)+len(v.Float64s)+len(v.Offs)+len(v.Nulls.bits)) +
		len(v.Data) + 4*len(v.Codes) + int(unsafe.Sizeof(value.Value{}))*len(v.Boxed)
}

// AppendSel gathers the selected rows of src onto v (the gather step of
// late materialization). v must have been Reset with src's kind.
func (v *Vector) AppendSel(src *Vector, sel []int32) {
	switch native(src.kind) {
	case value.Int:
		for _, i := range sel {
			v.Int64s = append(v.Int64s, src.Int64s[i])
		}
	case value.Float:
		for _, i := range sel {
			v.Float64s = append(v.Float64s, src.Float64s[i])
		}
	case value.Bytes:
		if v.n == 0 && len(src.Codes) != 0 && len(sel) >= src.Entries() {
			// The gather of a dictionary-form column into an empty one keeps
			// the form: the dictionary is copied once and rows are gathered
			// as codes. A selection smaller than the dictionary would copy
			// entries no row names, so it takes the flat gather below.
			v.Data = append(v.Data[:0], src.Data...)
			v.Offs = append(v.Offs[:0], src.Offs...)
			for _, i := range sel {
				v.Codes = append(v.Codes, src.Codes[i])
			}
			break
		}
		v.materialize()
		if len(v.Offs) == 0 {
			v.Offs = append(v.Offs, 0)
		}
		for _, i := range sel {
			v.Data = append(v.Data, src.BytesAt(int(i))...)
			v.Offs = append(v.Offs, uint64(len(v.Data)))
		}
	default:
		for _, i := range sel {
			v.Boxed = append(v.Boxed, src.Boxed[i])
		}
	}
	if src.Nulls.Any() {
		for k, i := range sel {
			if src.Nulls.Get(int(i)) {
				v.Nulls.Set(v.n + k)
			}
		}
	}
	v.n += len(sel)
}

// Batch is the decoded rows of one block: one Vector per schema field, all
// the same length.
type Batch struct {
	schema *value.Schema
	// Cols are the column vectors, parallel to schema.Fields.
	Cols []Vector
	n    int
}

// NewBatch allocates a batch for the given schema.
func NewBatch(schema *value.Schema) *Batch {
	b := &Batch{}
	b.Reset(schema)
	return b
}

// Reset clears the batch for reuse under a (possibly different) schema,
// keeping column buffers.
func (b *Batch) Reset(schema *value.Schema) {
	b.schema = schema
	if cap(b.Cols) < schema.Arity() {
		cols := make([]Vector, schema.Arity())
		copy(cols, b.Cols)
		b.Cols = cols
	}
	b.Cols = b.Cols[:schema.Arity()]
	for i := range b.Cols {
		b.Cols[i].Reset(schema.Fields[i].Type)
	}
	b.n = 0
}

// Schema returns the batch schema.
func (b *Batch) Schema() *value.Schema { return b.schema }

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// SetLen declares the row count after columns were filled directly. It
// errors if any column disagrees — the cross-column alignment check.
func (b *Batch) SetLen(n int) error {
	for i := range b.Cols {
		if b.Cols[i].Len() != n {
			return fmt.Errorf("vec: column %q has %d rows, batch has %d",
				b.schema.Fields[i].Name, b.Cols[i].Len(), n)
		}
	}
	b.n = n
	return nil
}

// Row boxes row i into a fresh value.Row.
func (b *Batch) Row(i int) value.Row {
	out := make(value.Row, len(b.Cols))
	for c := range b.Cols {
		out[c] = b.Cols[c].Value(i)
	}
	return out
}

// slabValues bounds the values AppendRows carves from one allocation: 256
// values stay under the allocator's 32 KiB large-object size.
const slabValues = 256

// AppendRows boxes the rows of b at sel onto dst. The rows are carved out
// of shared slabs of up to slabValues values, one allocation per slab
// rather than per row, and each row's capacity ends at its arity, so an
// append to one row never writes into the next. The rows share nothing with
// b and stay valid after it is reset or recycled.
func (b *Batch) AppendRows(dst []value.Row, sel []int32) []value.Row {
	a := len(b.Cols)
	per := max(1, slabValues/max(a, 1))
	for len(sel) > 0 {
		n := min(len(sel), per)
		slab := make([]value.Value, n*a)
		for c := range b.Cols {
			b.Cols[c].boxInto(slab[c:], a, sel[:n])
		}
		for k := 0; k < n; k++ {
			dst = append(dst, slab[k*a:(k+1)*a:(k+1)*a])
		}
		sel = sel[n:]
	}
	return dst
}

// AppendRow appends one boxed row across all columns.
func (b *Batch) AppendRow(r value.Row) error {
	if len(r) != len(b.Cols) {
		return fmt.Errorf("vec: row arity %d != batch arity %d", len(r), len(b.Cols))
	}
	for c := range b.Cols {
		if err := b.Cols[c].AppendValue(r[c]); err != nil {
			return err
		}
	}
	b.n++
	return nil
}

// FromRows builds a batch from boxed rows (the bridge used when a cursor is
// serving a materialized result through the batch API).
func FromRows(schema *value.Schema, rows []value.Row) (*Batch, error) {
	b := NewBatch(schema)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// FillSel resets sel to the identity selection [0, n), reusing its buffer.
func FillSel(sel []int32, n int) []int32 {
	sel = sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// Pool recycles batches across blocks and scan workers. It is safe for
// concurrent use; Get returns a batch Reset to the given schema.
type Pool struct {
	p sync.Pool
}

// NewPool creates a batch pool.
func NewPool() *Pool {
	return &Pool{p: sync.Pool{New: func() any { return &Batch{} }}}
}

// Get returns a batch reset to schema.
func (p *Pool) Get(schema *value.Schema) *Batch {
	b := p.p.Get().(*Batch)
	b.Reset(schema)
	return b
}

// Put recycles a batch. The caller must not touch it afterwards.
func (p *Pool) Put(b *Batch) {
	if b != nil {
		p.p.Put(b)
	}
}
