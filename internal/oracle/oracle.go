// Package oracle is the boxed, row-at-a-time reference implementation of
// the storage algebra: the codecs over []value.Value, the row-relation
// operators (select, project, order, group, limit, grid assignment) and
// the predicate and scalar-expression evaluators over one value.Row. The
// engine runs none of it. The production paths are vectorized (typed
// codecs in compress, compiled filters and expressions in algebra, the
// vector fold in table), and the differential tests hold each of them to
// this package, which is written the plain way on purpose.
//
// Only _test.go files import oracle; rslint's testonly analyzer enforces
// that. It depends on value, algebra and transforms and nothing else, so
// the in-package tests of compress and segment can import it too.
package oracle
