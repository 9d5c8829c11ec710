package other

import (
	"testing"

	"rodentstore/internal/lint/testdata/deadexport/internal/dead"
	"rodentstore/internal/lint/testdata/deadexport/internal/oracle"
)

// A reference from another package's tests keeps a name live only in the
// shared test support.
func TestOther(t *testing.T) {
	dead.UsedByOtherTest()
	oracle.UsedByOtherTest()
}
