// Positive: production code imports the test-only package.
package prod

import (
	"strings" // near-miss: any other import is fine

	"rodentstore/internal/lint/testdata/testonly/internal/oracle" // want `non-test file imports test-only package .*/internal/oracle`
)

// Answer leans on the reference.
func Answer() string { return strings.Repeat("x", oracle.Reference()) }
