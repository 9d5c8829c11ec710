package prod

import (
	"testing"

	"rodentstore/internal/lint/testdata/testonly/internal/oracle"
)

// Near-miss: a test file may import the test-only package (the loader
// never reads test files, so this is never reported).
func TestAnswer(t *testing.T) {
	if len(Answer()) != oracle.Reference() {
		t.Fatal("mismatch")
	}
}
