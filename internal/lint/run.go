package lint

import (
	"fmt"
	"io"
	"os"
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
	wd, err := os.Getwd()
	if err != nil {
		return Result{}, err
	}
	root, modPath, err := ModuleRoot(wd)
	if err != nil {
		return Result{}, err
	}
	pkgs, diags, err := Check(root, modPath, patterns, analyzers)
	res := Result{Packages: len(pkgs)}
	for _, d := range diags {
		if d.Suppressed {
			res.Suppressed++
			continue
		}
		res.Findings++
		fmt.Fprintln(out, d)
	}
	return res, err
}

// Check expands patterns against the module rooted at root (import path
// modPath), loads each package and applies the analyzers: first each one's
// per-package Run, then, if the patterns cover the whole module, each
// one's RunModule over every package at once. It returns the packages
// loaded and every diagnostic, suppressed ones included.
func Check(root, modPath string, patterns []string, analyzers []*Analyzer) ([]*Package, []Diagnostic, error) {
	targets, whole, err := expand(root, modPath, patterns)
	if err != nil {
		return nil, nil, err
	}
	loader := NewLoader()
	var diags []Diagnostic
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := loader.LoadDir(t.Dir, t.Path)
		if err != nil {
			return pkgs, diags, err
		}
		ds, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return pkgs, diags, err
		}
		pkgs = append(pkgs, pkg)
		diags = append(diags, ds...)
	}
	if whole {
		ds, err := runModuleAnalyzers(root, pkgs, analyzers)
		if err != nil {
			return pkgs, diags, err
		}
		diags = append(diags, ds...)
	}
	return pkgs, diags, nil
}

// DefaultAnalyzers returns the production-configured suite: the seven
// repo-specific analyzers over RodentStore's real lock table, lease/batch
// APIs, version pins, deterministic-path package list and test-only
// packages.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		LeaseLease(DefaultPinPackage),
		BatchLife(),
		NewLockOrder(DefaultLockOrder, DefaultCatalogRMW),
		ErrWrapped(),
		NewNoWallClock(DefaultDeterministicPackages),
		DeadExport(),
		NewTestOnly(DefaultTestOnlyPackages),
	}
}
