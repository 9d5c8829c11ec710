// Fixture for the deadexport analyzer: the declarations under test. The
// fixture tree type-checks but is never built or run.
package dead

import "fmt"

// Positive: nothing references it.
func Unused() {} // want `exported Unused is referenced only by its own package's tests`

// Positive: only this package's own tests reference it.
func OnlyOwnTests() int { return 1 } // want `exported OnlyOwnTests is referenced only`

// Positive: its only reference is its own recursive call.
func Recurse(n int) int { // want `exported Recurse is referenced only`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Positive: only another package's tests reference it, and this package is
// not the shared test support.
func UsedByOtherTest() {} // want `exported UsedByOtherTest is referenced only`

// Near-miss: this package's own non-test code references it.
func UsedHere() int { return 2 }

var total = UsedHere()

// Near-miss: a package in a nested module directory references it.
func UsedByNested() {}

// Sizer is an interface Thing satisfies.
type Sizer interface{ Size() int }

// Thing carries the method cases.
type Thing struct{ n int }

// NewThing is referenced from the nested module.
func NewThing() *Thing { return &Thing{n: total} }

// Positive: an unreferenced method.
func (t *Thing) Unused() int { return t.n } // want `exported Thing.Unused is referenced only`

// Near-miss: nothing calls it, but it satisfies Sizer.
func (t *Thing) Size() int { return t.n }

// Near-miss: fmt calls it through fmt.Stringer.
func (t *Thing) String() string { return fmt.Sprint(t.n) }

// Suppressed, with a reason.
//
//lint:allow deadexport the fixture's documented entry point
func Suppressed() {}
