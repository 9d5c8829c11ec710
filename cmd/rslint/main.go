// Command rslint runs RodentStore's repo-specific static analyzers — the
// buffer-lease, batch-lifetime, lock-order, error-wrapping and
// deterministic-clock invariants, and the dead-export check — over the
// module's packages. The dead-export check runs only for ./..., the one
// pattern under which it sees every reference.
//
// Usage:
//
//	go run ./cmd/rslint ./...
//	go run ./cmd/rslint ./internal/table ./internal/buffer/...
//
// Exit status: 0 when clean, 1 when any finding is reported, 2 when a
// package fails to load or type-check. Findings suppressed by a
// //lint:allow annotation are counted on stderr but do not fail the run.
// Run it from anywhere inside the module.
package main

import (
	"flag"
	"fmt"
	"os"

	"rodentstore/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rslint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	res, err := lint.Run(flag.Args(), lint.DefaultAnalyzers(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rslint:", err)
		os.Exit(2)
	}
	if res.Suppressed > 0 {
		fmt.Fprintf(os.Stderr, "rslint: %d finding(s) suppressed by //lint:allow\n", res.Suppressed)
	}
	if res.Findings > 0 {
		fmt.Fprintf(os.Stderr, "rslint: %d finding(s) in %d package(s)\n", res.Findings, res.Packages)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rslint: %d package(s) clean\n", res.Packages)
}
