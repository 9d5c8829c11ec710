package other

import (
	"testing"

	"rodentstore/internal/lint/testdata/deadexport/internal/dead"
)

// A reference from another package's tests keeps a name live.
func TestOther(t *testing.T) {
	dead.UsedByOtherTest()
}
