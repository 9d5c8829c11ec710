package algebra

// Internals the external tests (oracle_test.go, package algebra_test)
// inspect.

// ExprSchema is the schema the expression tests evaluate over.
var ExprSchema = exprSchema

// TermKind is the kind of compiled term i, comparable with TermIntFloat and
// TermFloatFloat.
func (cp *CompiledPred) TermKind(i int) int { return int(cp.terms[i].kind) }

// The compiled term kinds the float-loop tests pin.
const (
	TermIntFloat   = int(termIntFloat)
	TermFloatFloat = int(termFloatFloat)
)
