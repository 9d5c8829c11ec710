package oracle

// The row-at-a-time evaluators: the reference algebra.CompilePred and
// algebra.CompileExpr are compared against, one boxed row at a time.

import (
	"math"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// Eval evaluates the conjunction p against a row under schema. A term on a
// null field, or on a field the schema lacks, is false.
func Eval(p algebra.Predicate, schema *value.Schema, row value.Row) bool {
	for _, t := range p.Terms {
		i := schema.Index(t.Field)
		if i < 0 || row[i].IsNull() || !holds(t.Op, value.Compare(row[i], t.Value)) {
			return false
		}
	}
	return true
}

// holds maps a three-way comparison to the operator's verdict.
func holds(op algebra.CmpOp, cmp int) bool {
	switch op {
	case algebra.OpEq:
		return cmp == 0
	case algebra.OpNe:
		return cmp != 0
	case algebra.OpLt:
		return cmp < 0
	case algebra.OpLe:
		return cmp <= 0
	case algebra.OpGt:
		return cmp > 0
	case algebra.OpGe:
		return cmp >= 0
	}
	return false
}

// EvalScalar evaluates e against one boxed row, which must conform to
// schema, under the semantics algebra's expr.go documents: int op int is
// int, a float operand makes the op float, a null operand or an int
// division by zero makes the result null, and int overflow wraps.
func EvalScalar(e algebra.ScalarExpr, schema *value.Schema, row value.Row) (value.Value, error) {
	kind, err := algebra.ExprType(e, schema)
	if err != nil {
		return value.NullValue(), err
	}
	v, null := evalScalar(e, schema, row)
	if null {
		return value.NullValue(), nil
	}
	if kind == value.Float {
		return value.NewFloat(v.f), nil
	}
	return value.NewInt(v.i), nil
}

// scalarVal carries an unboxed intermediate: exactly one of i/f is live,
// chosen by the node's static type.
type scalarVal struct {
	i int64
	f float64
}

func evalScalar(e algebra.ScalarExpr, schema *value.Schema, row value.Row) (scalarVal, bool) {
	switch e := e.(type) {
	case *algebra.ColExpr:
		v := row[schema.Index(e.Name)]
		if v.IsNull() {
			return scalarVal{}, true
		}
		if schema.Fields[schema.Index(e.Name)].Type == value.Float {
			return scalarVal{f: v.Float()}, false
		}
		return scalarVal{i: v.Int()}, false
	case *algebra.ConstExpr:
		if e.Val.Kind() == value.Float {
			return scalarVal{f: e.Val.Float()}, false
		}
		return scalarVal{i: e.Val.Int()}, false
	case *algebra.BinExpr:
		l, lnull := evalScalar(e.L, schema, row)
		r, rnull := evalScalar(e.R, schema, row)
		if lnull || rnull {
			return scalarVal{}, true
		}
		lk, _ := algebra.ExprType(e.L, schema)
		rk, _ := algebra.ExprType(e.R, schema)
		if lk == value.Float || rk == value.Float {
			lf, rf := l.f, r.f
			if lk == value.Int {
				lf = float64(l.i)
			}
			if rk == value.Int {
				rf = float64(r.i)
			}
			return scalarVal{f: binFloat(e.Op, lf, rf)}, false
		}
		if e.Op == '/' && r.i == 0 {
			return scalarVal{}, true
		}
		return scalarVal{i: binInt(e.Op, l.i, r.i)}, false
	}
	return scalarVal{}, true
}

func binInt(op byte, a, b int64) int64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	case '/':
		// Go panics on MinInt64 / -1; define it to wrap like the other ops.
		if a == math.MinInt64 && b == -1 {
			return math.MinInt64
		}
		return a / b
	}
	return 0
}

func binFloat(op byte, a, b float64) float64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	case '/':
		return a / b
	}
	return 0
}
