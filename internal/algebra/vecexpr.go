package algebra

// Vectorized expression evaluation: CompileExpr lowers a ScalarExpr into a
// postfix program over typed registers, evaluated column-at-a-time for the
// selected rows of a vec.Batch — the CompilePred approach applied to
// arithmetic. Results are identical to EvalScalar on every boxed row,
// including the null rule (null operand -> null result), int wraparound and
// the x/0 -> null int-division rule.

import (
	"fmt"
	"math"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// exprOp is one postfix instruction.
type exprOp uint8

const (
	opLoadInt    exprOp = iota // push int column (gathered through sel)
	opLoadFloat                // push float column
	opConstInt                 // push int literal (broadcast)
	opConstFloat               // push float literal
	opI2F                      // widen top register int -> float
	opAddI                     // pop 2 ints, push int
	opSubI
	opMulI
	opDivI // x/0 -> null; MinInt64 / -1 -> MinInt64
	opAddF // pop 2 floats, push float (IEEE)
	opSubF
	opMulF
	opDivF
)

// exprInstr is one step of the compiled program.
type exprInstr struct {
	op  exprOp
	col int     // opLoad*
	i   int64   // opConstInt
	f   float64 // opConstFloat
}

// CompiledExpr is a scalar expression compiled against one schema, ready to
// evaluate over batches of that schema.
type CompiledExpr struct {
	prog  []exprInstr
	cols  []int
	kind  value.Kind // result kind: Int or Float
	depth int        // register stack depth the program needs
}

// exprReg is one register: a dense value array (one slot per selected row)
// plus a null bitmap.
type exprReg struct {
	ints   []int64
	floats []float64
	nulls  vec.Bitmap
}

// ExprScratch holds the reusable register file of one evaluating goroutine.
type ExprScratch struct {
	regs []exprReg
}

// CompileExpr compiles e for batches of the given schema.
func CompileExpr(e ScalarExpr, schema *value.Schema) (*CompiledExpr, error) {
	kind, err := ExprType(e, schema)
	if err != nil {
		return nil, err
	}
	ce := &CompiledExpr{kind: kind}
	seen := make(map[int]bool)
	depth := ce.emit(e, schema, seen, 0)
	ce.depth = depth
	return ce, nil
}

// emit appends e's program and returns the peak stack depth; cur is the
// stack depth at entry.
func (ce *CompiledExpr) emit(e ScalarExpr, schema *value.Schema, seen map[int]bool, cur int) int {
	switch e := e.(type) {
	case *ColExpr:
		ci := schema.Index(e.Name)
		if !seen[ci] {
			seen[ci] = true
			ce.cols = append(ce.cols, ci)
		}
		if schema.Fields[ci].Type == value.Float {
			ce.prog = append(ce.prog, exprInstr{op: opLoadFloat, col: ci})
		} else {
			ce.prog = append(ce.prog, exprInstr{op: opLoadInt, col: ci})
		}
		return cur + 1
	case *ConstExpr:
		if e.Val.Kind() == value.Float {
			ce.prog = append(ce.prog, exprInstr{op: opConstFloat, f: e.Val.Float()})
		} else {
			ce.prog = append(ce.prog, exprInstr{op: opConstInt, i: e.Val.Int()})
		}
		return cur + 1
	case *BinExpr:
		lk, _ := ExprType(e.L, schema)
		rk, _ := ExprType(e.R, schema)
		isFloat := lk == value.Float || rk == value.Float
		peak := ce.emit(e.L, schema, seen, cur)
		if isFloat && lk == value.Int {
			ce.prog = append(ce.prog, exprInstr{op: opI2F})
		}
		if p := ce.emit(e.R, schema, seen, cur+1); p > peak {
			peak = p
		}
		if isFloat && rk == value.Int {
			ce.prog = append(ce.prog, exprInstr{op: opI2F})
		}
		var op exprOp
		if isFloat {
			switch e.Op {
			case '+':
				op = opAddF
			case '-':
				op = opSubF
			case '*':
				op = opMulF
			default:
				op = opDivF
			}
		} else {
			switch e.Op {
			case '+':
				op = opAddI
			case '-':
				op = opSubI
			case '*':
				op = opMulI
			default:
				op = opDivI
			}
		}
		ce.prog = append(ce.prog, exprInstr{op: op})
		return peak
	}
	return cur
}

// Columns returns the distinct column indexes the expression reads, in
// first-use order — the set a scan must decode before evaluating.
func (ce *CompiledExpr) Columns() []int { return ce.cols }

// EvalVec evaluates the expression for the selected rows of b (the first n
// rows when sel is nil — n is explicit because lazily decoded batches do
// not know their length), writing a dense result — slot k is the value for
// row sel[k] — into dst, which is Reset to the result kind. scratch carries
// the register file; one per evaluating goroutine.
func (ce *CompiledExpr) EvalVec(b *vec.Batch, n int, sel []int32, dst *vec.Vector, scratch *ExprScratch) error {
	if sel != nil {
		n = len(sel)
	}
	for len(scratch.regs) < ce.depth {
		scratch.regs = append(scratch.regs, exprReg{})
	}
	sp := 0
	for pi := range ce.prog {
		ins := &ce.prog[pi]
		switch ins.op {
		case opLoadInt, opLoadFloat:
			r := &scratch.regs[sp]
			sp++
			r.nulls.Reset()
			col := &b.Cols[ins.col]
			hasNulls := col.Nulls.Any()
			if ins.op == opLoadInt {
				r.ints = r.ints[:0]
				if sel == nil {
					r.ints = append(r.ints, col.Int64s[:n]...)
					if hasNulls {
						for i := 0; i < n; i++ {
							if col.IsNull(i) {
								r.nulls.Set(i)
							}
						}
					}
				} else {
					for k, i := range sel {
						r.ints = append(r.ints, col.Int64s[i])
						if hasNulls && col.IsNull(int(i)) {
							r.nulls.Set(k)
						}
					}
				}
			} else {
				r.floats = r.floats[:0]
				if sel == nil {
					r.floats = append(r.floats, col.Float64s[:n]...)
					if hasNulls {
						for i := 0; i < n; i++ {
							if col.IsNull(i) {
								r.nulls.Set(i)
							}
						}
					}
				} else {
					for k, i := range sel {
						r.floats = append(r.floats, col.Float64s[i])
						if hasNulls && col.IsNull(int(i)) {
							r.nulls.Set(k)
						}
					}
				}
			}
		case opConstInt:
			r := &scratch.regs[sp]
			sp++
			r.nulls.Reset()
			r.ints = r.ints[:0]
			for k := 0; k < n; k++ {
				r.ints = append(r.ints, ins.i)
			}
		case opConstFloat:
			r := &scratch.regs[sp]
			sp++
			r.nulls.Reset()
			r.floats = r.floats[:0]
			for k := 0; k < n; k++ {
				r.floats = append(r.floats, ins.f)
			}
		case opI2F:
			r := &scratch.regs[sp-1]
			r.floats = r.floats[:0]
			for _, x := range r.ints {
				r.floats = append(r.floats, float64(x))
			}
		case opAddI, opSubI, opMulI, opDivI:
			sp--
			l, r := &scratch.regs[sp-1], &scratch.regs[sp]
			ls, rs := l.ints, r.ints
			switch ins.op {
			case opAddI:
				for k := range ls {
					ls[k] += rs[k]
				}
			case opSubI:
				for k := range ls {
					ls[k] -= rs[k]
				}
			case opMulI:
				for k := range ls {
					ls[k] *= rs[k]
				}
			case opDivI:
				for k := range ls {
					switch {
					case rs[k] == 0:
						ls[k] = 0
						l.nulls.Set(k)
					case ls[k] == math.MinInt64 && rs[k] == -1:
						ls[k] = math.MinInt64
					default:
						ls[k] /= rs[k]
					}
				}
			}
			orNulls(&l.nulls, &r.nulls, n)
		case opAddF, opSubF, opMulF, opDivF:
			sp--
			l, r := &scratch.regs[sp-1], &scratch.regs[sp]
			ls, rs := l.floats, r.floats
			switch ins.op {
			case opAddF:
				for k := range ls {
					ls[k] += rs[k]
				}
			case opSubF:
				for k := range ls {
					ls[k] -= rs[k]
				}
			case opMulF:
				for k := range ls {
					ls[k] *= rs[k]
				}
			case opDivF:
				for k := range ls {
					ls[k] /= rs[k]
				}
			}
			orNulls(&l.nulls, &r.nulls, n)
		}
	}
	if sp != 1 {
		return fmt.Errorf("algebra: expression program left %d registers", sp)
	}
	res := &scratch.regs[0]
	dst.Reset(ce.kind)
	if ce.kind == value.Float {
		dst.Float64s = append(dst.Float64s, res.floats...)
	} else {
		dst.Int64s = append(dst.Int64s, res.ints...)
	}
	dst.SyncLen()
	if res.nulls.Any() {
		for k := 0; k < n; k++ {
			if res.nulls.Get(k) {
				dst.Nulls.Set(k)
			}
		}
	}
	return nil
}

// orNulls merges r's null bits into l.
func orNulls(l, r *vec.Bitmap, n int) {
	if !r.Any() {
		return
	}
	for k := 0; k < n; k++ {
		if r.Get(k) {
			l.Set(k)
		}
	}
}
