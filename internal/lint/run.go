package lint

import (
	"fmt"
	"io"
)

// Result summarizes one Run.
type Result struct {
	Packages   int
	Findings   int // reported violations (build-failing)
	Suppressed int // findings matched by //lint:allow
}

// Run expands patterns, loads each package and applies the analyzers,
// printing reported findings (and a suppression summary) to out. It is the
// engine behind cmd/rslint and the repo smoke test.
func Run(patterns []string, analyzers []*Analyzer, out io.Writer) (Result, error) {
	targets, err := ExpandPatterns(patterns)
	if err != nil {
		return Result{}, err
	}
	loader := NewLoader()
	var res Result
	for _, t := range targets {
		pkg, err := loader.LoadDir(t.Dir, t.Path)
		if err != nil {
			return res, err
		}
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return res, err
		}
		res.Packages++
		for _, d := range diags {
			if d.Suppressed {
				res.Suppressed++
				continue
			}
			res.Findings++
			fmt.Fprintln(out, d)
		}
	}
	return res, nil
}

// DefaultAnalyzers returns the production-configured suite: the five
// repo-specific analyzers over RodentStore's real lock table, lease/batch
// APIs and deterministic-path package list.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		LeaseLease(),
		BatchLife(),
		NewLockOrder(DefaultLockOrder, DefaultCatalogRMW),
		ErrWrapped(),
		NewNoWallClock(DefaultDeterministicPackages),
	}
}
