package dead_test

import (
	"testing"

	"rodentstore/internal/lint/testdata/deadexport/internal/dead"
)

// A reference from the package's own tests does not keep a name live.
func TestOwn(t *testing.T) {
	if dead.OnlyOwnTests() != 1 {
		t.Fatal("OnlyOwnTests")
	}
}
