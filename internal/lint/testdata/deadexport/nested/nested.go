// Package nested stands for a nested module (like benchmark/) whose
// non-test code references the fixture's internal packages.
package nested

import "rodentstore/internal/lint/testdata/deadexport/internal/dead"

var _ dead.Sizer = dead.NewThing()

func init() { dead.UsedByNested() }
