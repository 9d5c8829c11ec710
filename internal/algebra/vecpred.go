package algebra

// Vectorized predicate evaluation: CompilePred lowers a Predicate into a
// sequence of typed comparison loops that run column-at-a-time over a
// vec.Batch, compacting a selection vector — no schema lookup, interface
// dispatch or value boxing per row. Results are identical to evaluating
// oracle.Eval on every boxed row, including the null rule (a null field
// never satisfies a comparison) and value.Compare's numeric and NaN
// ordering.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// termKind selects the typed comparison loop of one compiled term.
type termKind uint8

const (
	termIntInt     termKind = iota // int64 column vs int64 constant
	termIntFloat                   // int64 column vs float64 constant (compare as floats)
	termFloatFloat                 // float64 column vs float64 constant
	termBytes                      // arena column vs []byte constant
	termBoxed                      // fallback: box each row, value.Compare
)

// vecTerm is one compiled comparison.
type vecTerm struct {
	col  int
	op   CmpOp
	kind termKind
	i    int64
	f    float64
	b    []byte
	v    value.Value // boxed constant (termBoxed)
}

// CompiledPred is a predicate compiled against one schema, ready to filter
// batches of that schema. Terms are ordered cheap-first: fixed-width numeric
// columns (the zone-mapped ones) run before byte-string and boxed terms, so
// the selection is usually small by the time expensive comparisons run.
type CompiledPred struct {
	terms []vecTerm
	cols  []int
}

// CompilePred compiles p for batches of the given schema. The empty
// predicate compiles to a pass-through filter.
func CompilePred(p Predicate, schema *value.Schema) (*CompiledPred, error) {
	cp := &CompiledPred{}
	seen := make(map[int]bool)
	for _, t := range p.Terms {
		ci := schema.Index(t.Field)
		if ci < 0 {
			return nil, fmt.Errorf("algebra: predicate references unknown field %q", t.Field)
		}
		vt := vecTerm{col: ci, op: t.Op, kind: termBoxed, v: t.Value}
		ft := schema.Fields[ci].Type
		cv := t.Value
		switch ft {
		case value.Int:
			switch cv.Kind() {
			case value.Int:
				vt.kind, vt.i = termIntInt, cv.Int()
			case value.Float:
				vt.kind, vt.f = termIntFloat, cv.Float()
			}
		case value.Bool:
			if cv.Kind() == value.Bool {
				vt.kind, vt.i = termIntInt, cv.Int()
			}
		case value.Float:
			switch cv.Kind() {
			case value.Float, value.Int:
				// value.Compare widens Int constants to float here, so the
				// typed loop can too.
				vt.kind, vt.f = termFloatFloat, cv.Float()
			}
		case value.Str:
			if cv.Kind() == value.Str {
				vt.kind, vt.b = termBytes, []byte(cv.Str())
			}
		case value.Bytes:
			if cv.Kind() == value.Bytes {
				vt.kind, vt.b = termBytes, cv.Bytes()
			}
		}
		cp.terms = append(cp.terms, vt)
		if !seen[ci] {
			seen[ci] = true
			cp.cols = append(cp.cols, ci)
		}
	}
	sort.SliceStable(cp.terms, func(a, b int) bool {
		return cp.terms[a].cost() < cp.terms[b].cost()
	})
	return cp, nil
}

// cost orders terms cheapest-comparison-first.
func (t *vecTerm) cost() int {
	switch t.kind {
	case termIntInt, termIntFloat, termFloatFloat:
		return 0
	case termBytes:
		return 1
	default:
		return 2
	}
}

// Empty reports whether the predicate has no terms (filter is pass-through).
func (cp *CompiledPred) Empty() bool { return len(cp.terms) == 0 }

// Columns returns the distinct column indexes the filter reads, in first-use
// order. The scan decodes exactly these before filtering (late
// materialization decodes the rest only for surviving rows).
func (cp *CompiledPred) Columns() []int { return cp.cols }

// Filter compacts sel down to the rows of b satisfying the conjunction,
// reusing sel's backing array, and returns it.
func (cp *CompiledPred) Filter(b *vec.Batch, sel []int32) []int32 {
	return filterTerms(cp.terms, b, sel)
}

// FilterRange returns the rows among the first n of b that satisfy the
// conjunction, written into buf's backing array (grown to n entries if it
// is shorter). The first term reads rows 0..n-1 directly and writes only
// its survivors; later terms compact the selection in place, as Filter
// does.
func (cp *CompiledPred) FilterRange(b *vec.Batch, n int, buf []int32) []int32 {
	buf = slices.Grow(buf[:0], n)[:n]
	if len(cp.terms) == 0 {
		return vec.FillSel(buf, n)
	}
	return filterTerms(cp.terms[1:], b, cp.terms[0].filter(b, buf, true))
}

// filterTerms compacts sel by each of terms in turn.
func filterTerms(terms []vecTerm, b *vec.Batch, sel []int32) []int32 {
	for i := range terms {
		if len(sel) == 0 {
			return sel
		}
		sel = terms[i].filter(b, sel, false)
	}
	return sel
}

// opOK maps a three-way comparison to the term's operator.
func opOK(op CmpOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// cmpF is value.Compare's float ordering (NaNs sort before everything,
// including -Inf) — shared, not copied, so the executors cannot drift.
var cmpF = value.CompareFloats

// filter keeps the rows satisfying this term and returns them in sel's
// backing array. With dense set the rows are 0..len(sel)-1 and sel's
// contents are not read; otherwise they are sel's, compacted in place. A
// null-free fixed-width column against a constant that is not NaN, and a
// null-free dictionary-form column, select without a branch per row; the
// other cases build the identity selection first when dense, then compare
// row by row.
func (t *vecTerm) filter(b *vec.Batch, sel []int32, dense bool) []int32 {
	v := &b.Cols[t.col]
	nulls := v.Nulls.Any()
	// The verdicts of a dictionary-form column's entries: a bitset on the
	// stack for any dictionary a 4,096-row block can carry (the compiled
	// predicate is shared by every worker, so it holds no scratch).
	var stack [64]uint64
	var pass []uint64
	if !nulls {
		switch {
		case t.kind == termIntInt:
			return keepCmp(v.Int64s, t.op, t.i, sel, dense)
		case t.kind == termIntFloat && !math.IsNaN(t.f):
			return keepCmp(v.Int64s, t.op, t.f, sel, dense)
		case t.kind == termFloatFloat && !math.IsNaN(t.f):
			return keepCmp(v.Float64s, t.op, t.f, sel, dense)
		}
	}
	if t.kind == termBytes && len(v.Codes) != 0 && v.Entries() <= len(sel) {
		// Dictionary form: compare each entry once, then select rows by
		// code.
		pass = t.verdicts(v, stack[:])
		if !nulls {
			return keepCodes(v.Codes, pass, sel, dense)
		}
	}
	if dense {
		sel = vec.FillSel(sel, len(sel))
	}
	out := sel[:0]
	switch t.kind {
	case termIntInt:
		xs, c := v.Int64s, t.i
		for _, i := range sel {
			if nulls && v.IsNull(int(i)) {
				continue
			}
			x := xs[i]
			cmp := 0
			if x < c {
				cmp = -1
			} else if x > c {
				cmp = 1
			}
			if opOK(t.op, cmp) {
				out = append(out, i)
			}
		}
	case termIntFloat:
		xs, c := v.Int64s, t.f
		for _, i := range sel {
			if nulls && v.IsNull(int(i)) {
				continue
			}
			if opOK(t.op, cmpF(float64(xs[i]), c)) {
				out = append(out, i)
			}
		}
	case termFloatFloat:
		xs, c := v.Float64s, t.f
		for _, i := range sel {
			if nulls && v.IsNull(int(i)) {
				continue
			}
			if opOK(t.op, cmpF(xs[i], c)) {
				out = append(out, i)
			}
		}
	case termBytes:
		if pass != nil {
			for _, i := range sel {
				if nulls && v.IsNull(int(i)) {
					continue
				}
				if c := v.Codes[i]; pass[c>>6]&(1<<(c&63)) != 0 {
					out = append(out, i)
				}
			}
			break
		}
		for _, i := range sel {
			if nulls && v.IsNull(int(i)) {
				continue
			}
			if opOK(t.op, bytes.Compare(v.BytesAt(int(i)), t.b)) {
				out = append(out, i)
			}
		}
	default: // termBoxed
		for _, i := range sel {
			x := v.Value(int(i))
			if x.IsNull() {
				continue
			}
			if opOK(t.op, value.Compare(x, t.v)) {
				out = append(out, i)
			}
		}
	}
	return out
}

// verdicts sets bit e of the zeroed bitset pass, replaced by a larger one
// if it is too short, for each entry e of the dictionary-form column v that
// satisfies the term.
func (t *vecTerm) verdicts(v *vec.Vector, pass []uint64) []uint64 {
	ne := v.Entries()
	if words := (ne + 63) / 64; words > len(pass) {
		pass = make([]uint64, words)
	}
	for e := 0; e < ne; e++ {
		if opOK(t.op, bytes.Compare(v.Entry(e), t.b)) {
			pass[e>>6] |= 1 << (e & 63)
		}
	}
	return pass
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keepCodes is the selection of a null-free dictionary-form column: a row
// is kept when its code's bit is set in pass. Every row's index is stored
// and the count advances by the verdict, so there is no branch per row.
func keepCodes(codes []uint32, pass []uint64, sel []int32, dense bool) []int32 {
	k := 0
	if dense {
		for i, c := range codes[:len(sel)] {
			sel[k] = int32(i)
			k += int(pass[c>>6] >> (c & 63) & 1)
		}
		return sel[:k]
	}
	for _, i := range sel {
		c := codes[i]
		sel[k] = i
		k += int(pass[c>>6] >> (c & 63) & 1)
	}
	return sel[:k]
}

// keepCmp is the comparison of a null-free fixed-width column with a
// constant that is not NaN, over the dense range or the selection: one loop
// per operator, each storing every row's index and advancing the count by
// the verdict (`sel[k] = i; k += b2i(cond)`), so there is no branch per
// row. Int columns against float constants compare as floats. cmpF's order
// is written into the IEEE comparison: a NaN row sorts below every number,
// so it satisfies <, <= and != and nothing else — `!(x >= c)` is
// `x < c || x != x`, and `!(x > c)` is `x <= c || x != x`. −0 == +0 holds
// in both orders. Over ints the same expressions are the plain integer
// comparisons.
func keepCmp[T, C int64 | float64](xs []T, op CmpOp, c C, sel []int32, dense bool) []int32 {
	if dense {
		return cmpRange(xs[:len(sel)], op, c, sel)
	}
	return cmpSel(xs, op, c, sel)
}

// cmpRange is keepCmp over rows 0..len(xs)-1, writing into out (len(out)
// >= len(xs)).
func cmpRange[T, C int64 | float64](xs []T, op CmpOp, c C, out []int32) []int32 {
	k := 0
	switch op {
	case OpLt:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(!(C(x) >= c))
		}
	case OpLe:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(!(C(x) > c))
		}
	case OpGt:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(C(x) > c)
		}
	case OpGe:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(C(x) >= c)
		}
	case OpEq:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(C(x) == c)
		}
	case OpNe:
		for i, x := range xs {
			out[k] = int32(i)
			k += b2i(!(C(x) == c))
		}
	}
	return out[:k]
}

// cmpSel is keepCmp over the rows of sel, compacted in place.
func cmpSel[T, C int64 | float64](xs []T, op CmpOp, c C, sel []int32) []int32 {
	k := 0
	switch op {
	case OpLt:
		for _, i := range sel {
			sel[k] = i
			k += b2i(!(C(xs[i]) >= c))
		}
	case OpLe:
		for _, i := range sel {
			sel[k] = i
			k += b2i(!(C(xs[i]) > c))
		}
	case OpGt:
		for _, i := range sel {
			sel[k] = i
			k += b2i(C(xs[i]) > c)
		}
	case OpGe:
		for _, i := range sel {
			sel[k] = i
			k += b2i(C(xs[i]) >= c)
		}
	case OpEq:
		for _, i := range sel {
			sel[k] = i
			k += b2i(C(xs[i]) == c)
		}
	case OpNe:
		for _, i := range sel {
			sel[k] = i
			k += b2i(!(C(xs[i]) == c))
		}
	}
	return sel[:k]
}
