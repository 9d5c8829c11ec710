package lint_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"rodentstore/internal/lint"
	"rodentstore/internal/lint/linttest"
)

func fixture(name string) string { return filepath.Join("testdata", name) }

func TestLeaseLease(t *testing.T) {
	dir := fixture("leaselease")
	linttest.Run(t, lint.LeaseLease(linttest.FixturePath(dir)), dir)
}

func TestBatchLife(t *testing.T) {
	linttest.Run(t, lint.BatchLife(), fixture("batchlife"))
}

func TestLockOrder(t *testing.T) {
	dir := fixture("lockorder")
	path := linttest.FixturePath(dir)
	table := []lint.LockClass{
		{Path: path, Type: "Catalog", Field: "mu", Name: "catalog", Level: 10},
		{Path: path, Type: "Engine", Field: "mu", Name: "engine", Level: 20},
		{Path: path, Type: "MergeEngine", Field: "mergeMu", Name: "merge-registry", Level: 22},
		{Path: path, Type: "Merger", Field: "mu", Name: "merge-queue", Level: 24},
		{Path: path, Type: "Pager", Field: "stripes", Name: "pager-stripe", Level: 50},
	}
	rmw := &lint.GuardedRMW{
		Path: path, Type: "Catalog", Reads: []string{"Get"}, Writes: []string{"Put", "PutBuffered"}, Guard: "withLock",
	}
	linttest.Run(t, lint.NewLockOrder(table, rmw), dir)
}

func TestErrWrapped(t *testing.T) {
	linttest.Run(t, lint.ErrWrapped(), fixture("errwrapped"))
}

func TestNoWallClock(t *testing.T) {
	dir := fixture("nowallclock")
	linttest.Run(t, lint.NewNoWallClock([]string{linttest.FixturePath(dir)}), dir)
}

func TestDeadExport(t *testing.T) {
	dir := fixture("deadexport")
	linttest.RunModule(t, lint.DeadExport(), dir)

	// A pattern narrower than the module skips the check: it cannot see
	// every reference, so it reports nothing rather than false findings.
	root, modPath := linttest.FixtureModule(t, dir)
	_, diags, err := lint.Check(root, modPath, []string{"./internal/dead"}, []*lint.Analyzer{lint.DeadExport()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow pattern reported %s", d)
	}
}

func TestTestOnly(t *testing.T) {
	dir := fixture("testonly")
	_, modPath := linttest.FixtureModule(t, dir)
	linttest.RunModule(t, lint.NewTestOnly([]string{modPath + "/internal/oracle"}), dir)
}

// TestRepoClean is the smoke test behind `go run ./cmd/rslint ./...`: the
// full production suite over every package of the module must report zero
// findings (suppressions via //lint:allow are allowed and counted).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out bytes.Buffer
	res, err := lint.Run([]string{"./..."}, lint.DefaultAnalyzers(), &out)
	if err != nil {
		t.Fatalf("rslint run: %v", err)
	}
	if res.Findings != 0 {
		t.Errorf("rslint found %d violation(s) in %d package(s):\n%s", res.Findings, res.Packages, out.String())
	}
	if res.Packages < 10 {
		t.Errorf("rslint only saw %d packages; pattern expansion is broken", res.Packages)
	}
	t.Logf("rslint: %d packages, %d suppressed finding(s)", res.Packages, res.Suppressed)
}
