package algebra

import (
	"fmt"
	"strings"

	"rodentstore/internal/value"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Comparison is one "field op literal" term.
type Comparison struct {
	Field string
	Op    CmpOp
	Value value.Value
}

// String renders the term in grammar form.
func (c Comparison) String() string {
	return c.Field + " " + string(c.Op) + " " + c.Value.String()
}

// Predicate is a conjunction of comparisons. The zero Predicate is true.
// This is the condition language C of the algebra's comprehensions and the
// optional range predicate of the scan API (paper §4.1).
type Predicate struct {
	Terms []Comparison
}

// True is the empty (always-true) predicate.
var True = Predicate{}

// And returns a predicate with an extra term.
func (p Predicate) And(field string, op CmpOp, v value.Value) Predicate {
	return Predicate{Terms: append(append([]Comparison(nil), p.Terms...), Comparison{field, op, v})}
}

// IsTrue reports whether the predicate has no terms.
func (p Predicate) IsTrue() bool { return len(p.Terms) == 0 }

// String renders the predicate in grammar form ("a = 1 and b < 2").
func (p Predicate) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " and ")
}

// Fields returns the distinct field names referenced by the predicate.
func (p Predicate) Fields() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range p.Terms {
		if !seen[t.Field] {
			seen[t.Field] = true
			out = append(out, t.Field)
		}
	}
	return out
}

// Bounds extracts the interval constraint [lo, hi] that the predicate puts
// on field, if any. loOpen/hiOpen report strict inequalities; found is
// false when the field is unconstrained. Equality yields a degenerate
// closed interval. This is what grid and ordered segments use to prune.
func (p Predicate) Bounds(field string) (lo, hi value.Value, loOpen, hiOpen, found bool) {
	lo, hi = value.NullValue(), value.NullValue()
	for _, t := range p.Terms {
		if t.Field != field {
			continue
		}
		switch t.Op {
		case OpEq:
			if !found || value.Compare(t.Value, lo) > 0 {
				lo, loOpen = t.Value, false
			}
			if hi.IsNull() || value.Compare(t.Value, hi) < 0 {
				hi, hiOpen = t.Value, false
			}
			found = true
		case OpGt, OpGe:
			if lo.IsNull() || value.Compare(t.Value, lo) > 0 {
				lo, loOpen = t.Value, t.Op == OpGt
			}
			found = true
		case OpLt, OpLe:
			if hi.IsNull() || value.Compare(t.Value, hi) < 0 {
				hi, hiOpen = t.Value, t.Op == OpLt
			}
			found = true
		}
	}
	return lo, hi, loOpen, hiOpen, found
}

// Validate checks that every referenced field exists in the schema and that
// literal types are comparable with the field types.
func (p Predicate) Validate(schema *value.Schema) error {
	for _, t := range p.Terms {
		i := schema.Index(t.Field)
		if i < 0 {
			return fmt.Errorf("algebra: predicate references unknown field %q", t.Field)
		}
		ft := schema.Fields[i].Type
		vt := t.Value.Kind()
		numeric := func(k value.Kind) bool { return k == value.Int || k == value.Float }
		if vt == value.Null {
			return fmt.Errorf("algebra: predicate on %q compares against null", t.Field)
		}
		if ft == vt || (numeric(ft) && numeric(vt)) {
			continue
		}
		return fmt.Errorf("algebra: predicate on %q: cannot compare %s with %s", t.Field, ft, vt)
	}
	return nil
}
