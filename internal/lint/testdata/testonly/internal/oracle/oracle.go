// Fixture for the testonly analyzer: the test-only package itself. The
// fixture test configures the analyzer with this package's path.
package oracle

// Reference is test support.
func Reference() int { return 1 }
