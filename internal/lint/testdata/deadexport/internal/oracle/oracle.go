// Fixture for the deadexport analyzer: the shared test support, whose
// exports other packages' tests keep live.
package oracle

// Near-miss: another package's test references it.
func UsedByOtherTest() {}

// Positive: no test references it either.
func Unused() {} // want `exported Unused is referenced only`
