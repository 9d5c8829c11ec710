// Scalar arithmetic expressions over a record's numeric fields: column
// references, int/float literals, unary minus and the four binary operators
// + - * /. They back computed projections and aggregate inputs
// (sum(a*b), avg(price - cost)) the same way Predicate backs filters:
// a small AST and a compile-once typed evaluator (CompileExpr in
// vecexpr.go) that runs the expression as loops over column vectors. The
// boxed row-at-a-time evaluator the tests hold it to is oracle.EvalScalar.
//
// Semantics, shared bit-for-bit by both evaluators:
//
//   - typing: int op int -> int; if either operand is float the op is
//     float64 IEEE arithmetic (ints widen). Only Int and Float columns may
//     be referenced.
//   - nulls: any null operand makes the result null.
//   - int division: truncated (Go); x/0 is null; MinInt64 / -1 wraps to
//     MinInt64 (two's complement) instead of trapping.
//   - int overflow: wraps (two's complement), matching Go's int64.
package algebra

import (
	"fmt"
	"strconv"

	"rodentstore/internal/value"
)

// ScalarExpr is a typed arithmetic expression tree.
type ScalarExpr interface {
	// String renders the expression in parseable form.
	String() string
	// Fields appends the referenced column names (deduplicated) to dst.
	Fields(dst []string) []string
}

// ColExpr references a column by name.
type ColExpr struct{ Name string }

// ConstExpr is an int or float literal.
type ConstExpr struct{ Val value.Value }

// BinExpr applies Op ('+', '-', '*', '/') to L and R.
type BinExpr struct {
	Op   byte
	L, R ScalarExpr
}

func (e *ColExpr) String() string { return e.Name }

func (e *ConstExpr) String() string { return e.Val.String() }

func (e *BinExpr) String() string {
	l := e.L.String()
	if lb, ok := e.L.(*BinExpr); ok && prec(lb.Op) < prec(e.Op) {
		l = "(" + l + ")"
	}
	r := e.R.String()
	if rb, ok := e.R.(*BinExpr); ok && (prec(rb.Op) < prec(e.Op) ||
		(prec(rb.Op) == prec(e.Op) && (e.Op == '-' || e.Op == '/'))) {
		r = "(" + r + ")"
	}
	return l + " " + string(e.Op) + " " + r
}

func prec(op byte) int {
	if op == '*' || op == '/' {
		return 2
	}
	return 1
}

func (e *ColExpr) Fields(dst []string) []string {
	for _, f := range dst {
		if f == e.Name {
			return dst
		}
	}
	return append(dst, e.Name)
}

func (e *ConstExpr) Fields(dst []string) []string { return dst }

func (e *BinExpr) Fields(dst []string) []string { return e.R.Fields(e.L.Fields(dst)) }

// ExprType infers the result kind (Int or Float) of e against schema. It
// errors on unknown columns and non-numeric column references.
func ExprType(e ScalarExpr, schema *value.Schema) (value.Kind, error) {
	switch e := e.(type) {
	case *ColExpr:
		i := schema.Index(e.Name)
		if i < 0 {
			return value.Null, fmt.Errorf("algebra: expression references unknown field %q", e.Name)
		}
		k := schema.Fields[i].Type
		if k != value.Int && k != value.Float {
			return value.Null, fmt.Errorf("algebra: field %q is %s; expressions take int or float", e.Name, k)
		}
		return k, nil
	case *ConstExpr:
		return e.Val.Kind(), nil
	case *BinExpr:
		lk, err := ExprType(e.L, schema)
		if err != nil {
			return value.Null, err
		}
		rk, err := ExprType(e.R, schema)
		if err != nil {
			return value.Null, err
		}
		if lk == value.Float || rk == value.Float {
			return value.Float, nil
		}
		return value.Int, nil
	}
	return value.Null, fmt.Errorf("algebra: unknown expression node %T", e)
}

// ParseScalarExpr parses an arithmetic expression:
//
//	expr    := term  { ('+' | '-') term }
//	term    := unary { ('*' | '/') unary }
//	unary   := '-' unary | primary
//	primary := field | number | '(' expr ')'
//
// The predicate lexer folds leading +/- into number literals and has no
// '*' or '/' tokens, so expressions use their own scanner.
func ParseScalarExpr(src string) (ScalarExpr, error) {
	s := &exprScanner{src: src}
	e, err := s.parseExpr()
	if err != nil {
		return nil, err
	}
	s.skipSpace()
	if s.pos < len(s.src) {
		return nil, fmt.Errorf("algebra: unexpected %q at offset %d in expression %q", s.src[s.pos:], s.pos, src)
	}
	return e, nil
}

type exprScanner struct {
	src string
	pos int
}

func (s *exprScanner) skipSpace() {
	for s.pos < len(s.src) && (s.src[s.pos] == ' ' || s.src[s.pos] == '\t') {
		s.pos++
	}
}

func (s *exprScanner) peek() byte {
	s.skipSpace()
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *exprScanner) parseExpr() (ScalarExpr, error) {
	l, err := s.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		c := s.peek()
		if c != '+' && c != '-' {
			return l, nil
		}
		s.pos++
		r, err := s.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: c, L: l, R: r}
	}
}

func (s *exprScanner) parseTerm() (ScalarExpr, error) {
	l, err := s.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		c := s.peek()
		if c != '*' && c != '/' {
			return l, nil
		}
		s.pos++
		r, err := s.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: c, L: l, R: r}
	}
}

func (s *exprScanner) parseUnary() (ScalarExpr, error) {
	if s.peek() == '-' {
		s.pos++
		e, err := s.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold minus into literals; desugar -x to 0 - x otherwise so both
		// evaluators share one set of operator semantics.
		if c, ok := e.(*ConstExpr); ok {
			if c.Val.Kind() == value.Float {
				return &ConstExpr{Val: value.NewFloat(-c.Val.Float())}, nil
			}
			return &ConstExpr{Val: value.NewInt(-c.Val.Int())}, nil
		}
		return &BinExpr{Op: '-', L: &ConstExpr{Val: value.NewInt(0)}, R: e}, nil
	}
	return s.parsePrimary()
}

func (s *exprScanner) parsePrimary() (ScalarExpr, error) {
	c := s.peek()
	switch {
	case c == '(':
		s.pos++
		e, err := s.parseExpr()
		if err != nil {
			return nil, err
		}
		if s.peek() != ')' {
			return nil, fmt.Errorf("algebra: missing ')' at offset %d in expression %q", s.pos, s.src)
		}
		s.pos++
		return e, nil
	case c >= '0' && c <= '9' || c == '.':
		return s.parseNumber()
	case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		start := s.pos
		for s.pos < len(s.src) && isIdentChar(s.src[s.pos]) {
			s.pos++
		}
		return &ColExpr{Name: s.src[start:s.pos]}, nil
	case c == 0:
		return nil, fmt.Errorf("algebra: expression %q ends where a value is expected", s.src)
	}
	return nil, fmt.Errorf("algebra: unexpected %q at offset %d in expression %q", string(c), s.pos, s.src)
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (s *exprScanner) parseNumber() (ScalarExpr, error) {
	start := s.pos
	isFloat := false
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c >= '0' && c <= '9':
			s.pos++
		case c == '.' || c == 'e' || c == 'E':
			isFloat = true
			s.pos++
			// Exponent sign belongs to the literal.
			if (c == 'e' || c == 'E') && s.pos < len(s.src) && (s.src[s.pos] == '+' || s.src[s.pos] == '-') {
				s.pos++
			}
		default:
			goto done
		}
	}
done:
	text := s.src[start:s.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("algebra: bad number %q in expression %q", text, s.src)
		}
		return &ConstExpr{Val: value.NewFloat(f)}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("algebra: bad number %q in expression %q", text, s.src)
	}
	return &ConstExpr{Val: value.NewInt(i)}, nil
}

// ExprFields returns the column names e references, in first-use order.
func ExprFields(e ScalarExpr) []string { return e.Fields(nil) }
