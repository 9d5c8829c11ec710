// Near-miss: a package below the test-only one is part of it and may
// import it.
package helper

import "rodentstore/internal/lint/testdata/testonly/internal/oracle"

// Twice is test support built on the reference.
func Twice() int { return 2 * oracle.Reference() }
