package algebra

import (
	"testing"

	"rodentstore/internal/value"
)

func exprSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
	)
}

func TestParseScalarExprRoundTrip(t *testing.T) {
	cases := []struct{ in, out string }{
		{"a", "a"},
		{"a + b", "a + b"},
		{"a+b*x", "a + b * x"},
		{"(a+b)*x", "(a + b) * x"},
		{"a - b - 2", "a - b - 2"},
		{"a - (b - 2)", "a - (b - 2)"},
		{"a / b / 2", "a / b / 2"},
		{"a / (b * 2)", "a / (b * 2)"},
		{"-a", "0 - a"},
		{"-5 + a", "-5 + a"},
		{"2.5 * x", "2.5 * x"},
		{"1e3 + x", "1000 + x"},
	}
	for _, c := range cases {
		e, err := ParseScalarExpr(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if got := e.String(); got != c.out {
			t.Errorf("parse %q: printed %q, want %q", c.in, got, c.out)
		}
		// The printed form must re-parse to the same tree.
		e2, err := ParseScalarExpr(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if e2.String() != e.String() {
			t.Errorf("%q: reparse drifted to %q", e.String(), e2.String())
		}
	}
	for _, bad := range []string{"", "a +", "(a", "a b", "a & b", "1.2.3", "sum(a)"} {
		if _, err := ParseScalarExpr(bad); err == nil {
			t.Errorf("parse %q: expected error", bad)
		}
	}
}

func TestExprType(t *testing.T) {
	s := exprSchema()
	cases := []struct {
		in   string
		kind value.Kind
	}{
		{"a + b", value.Int},
		{"a / b", value.Int},
		{"a + x", value.Float},
		{"x * y", value.Float},
		{"a * 2", value.Int},
		{"a * 2.0", value.Float},
	}
	for _, c := range cases {
		e, err := ParseScalarExpr(c.in)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ExprType(e, s)
		if err != nil {
			t.Fatal(err)
		}
		if k != c.kind {
			t.Errorf("%q: type %v, want %v", c.in, k, c.kind)
		}
	}
	for _, bad := range []string{"s + 1", "a + nope"} {
		e, err := ParseScalarExpr(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ExprType(e, s); err == nil {
			t.Errorf("%q: expected type error", bad)
		}
	}
}
