package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"rodentstore/internal/lint"
)

var deadNameRE = regexp.MustCompile(`^exported (\S+) is referenced only`)

// TestDeadExportRules pins one clause of the deadexport rule per case: a
// small module written to a temp dir, and the names the analyzer must
// report in it ("Name (allowed)" for a suppressed finding). The modules
// import nothing across packages, because the loader resolves module
// imports through the go tool; cross-package non-test references are
// covered by the TestDeadExport fixture instead. References from other
// packages' tests are read syntactically, so they need no such import.
func TestDeadExportRules(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string // path under the module root -> source
		want  []string
	}{
		{
			name:  "unreferenced func",
			files: map[string]string{"internal/a/a.go": "package a\n\nfunc F() {}\n"},
			want:  []string{"F"},
		},
		{
			name:  "unreferenced type",
			files: map[string]string{"internal/a/a.go": "package a\n\ntype T struct{}\n"},
			want:  []string{"T"},
		},
		{
			name:  "unreferenced const and var",
			files: map[string]string{"internal/a/a.go": "package a\n\nconst C = 1\n\nvar V = 2\n"},
			want:  []string{"C", "V"},
		},
		{
			name: "unreferenced method",
			files: map[string]string{"internal/a/a.go": `package a

type T struct{}

func (T) M() {}

var t T
`},
			want: []string{"T.M"},
		},
		{
			name: "exported method of an unexported type",
			files: map[string]string{"internal/a/a.go": `package a

type t struct{}

func (t) M() {}

var _ = t{}
`},
			want: []string{"t.M"},
		},
		{
			name: "own non-test code references it",
			files: map[string]string{"internal/a/a.go": `package a

func F() int { return 1 }

var x = F()
`},
		},
		{
			name: "its own recursive call is no reference",
			files: map[string]string{"internal/a/a.go": `package a

func F(n int) int {
	if n == 0 {
		return 0
	}
	return F(n - 1)
}
`},
			want: []string{"F"},
		},
		{
			name: "a type used only by its own methods",
			files: map[string]string{"internal/a/a.go": `package a

type T struct{}

func (T) clone() T { return T{} }
`},
			want: []string{"T"},
		},
		{
			name: "own package tests only",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n\nfunc G() {}\n",
				"internal/a/internal_test.go": `package a

import "testing"

func TestF(t *testing.T) { F() }
`,
				"internal/a/external_test.go": `package a_test

import (
	"testing"

	"m/internal/a"
)

func TestG(t *testing.T) { a.G() }
`,
			},
			want: []string{"F", "G"},
		},
		{
			name: "another package's test references it",
			files: map[string]string{
				"internal/oracle/oracle.go": "package oracle\n\nfunc F() {}\n",
				"internal/b/b_test.go": `package b

import (
	"testing"

	"m/internal/oracle"
)

func TestB(t *testing.T) { oracle.F() }
`,
			},
		},
		{
			name: "another package's test references a name outside the test support",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"internal/b/b_test.go": `package b

import (
	"testing"

	"m/internal/a"
)

func TestB(t *testing.T) { a.F() }
`,
			},
			want: []string{"F"},
		},
		{
			name: "another package's test references it through a renamed import",
			files: map[string]string{
				"internal/oracle/oracle.go": "package oracle\n\nfunc F() {}\n",
				"internal/b/b_test.go": `package b

import (
	"testing"

	x "m/internal/oracle"
)

func TestB(t *testing.T) { x.F() }
`,
			},
		},
		{
			name: "another package's test names the method",
			files: map[string]string{
				"internal/oracle/oracle.go": "package oracle\n\ntype T struct{}\n\nfunc (T) M() {}\n\nfunc (T) N() {}\n",
				"internal/b/b_test.go": `package b

import (
	"testing"

	"m/internal/oracle"
)

func TestB(t *testing.T) { oracle.T{}.M() }
`,
			},
			want: []string{"T.N"},
		},
		{
			name: "a test under testdata is no reference",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc F() {}\n",
				"internal/b/testdata/b_test.go": `package b

import (
	"testing"

	"m/internal/a"
)

func TestB(t *testing.T) { a.F() }
`,
			},
			want: []string{"F"},
		},
		{
			name: "a method that satisfies an interface",
			files: map[string]string{"internal/a/a.go": `package a

type sizer interface{ Size() int }

type T struct{}

func (T) Size() int { return 0 }

var _ = T{}
`},
		},
		{
			name: "a method named by an interface the type only partly satisfies",
			files: map[string]string{"internal/a/a.go": `package a

type sizer interface {
	Size() int
	Grow()
}

type T struct{}

func (T) Size() int { return 0 }

var _ = T{}
`},
			want: []string{"T.Size"},
		},
		{
			name: "error and Stringer methods",
			files: map[string]string{"internal/a/a.go": `package a

type E struct{}

func (E) Error() string { return "" }

func (E) String() string { return "" }

var _ = E{}
`},
		},
		{
			name: "a method promoted through an embedded field",
			files: map[string]string{"internal/a/a.go": `package a

type Inner struct{}

func (Inner) M() {}

type outer struct{ Inner }

var _ = outer{}.M
`},
		},
		{
			name: "a generic func and a method of a generic type",
			files: map[string]string{"internal/a/a.go": `package a

func Same[T any](x T) T { return x }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b Box[T]) Put(v T) { b.v = v }

var _ = Same(Box[int]{}.Get())
`},
			want: []string{"Box.Put"},
		},
		{
			name: "exported fields are not checked",
			files: map[string]string{"internal/a/a.go": `package a

type t struct{ X int }

var _ = t{}
`},
		},
		{
			name: "declarations outside internal",
			files: map[string]string{
				"m.go":       "package m\n\nfunc F() {}\n",
				"pkg/p/p.go": "package p\n\nfunc G() {}\n",
			},
		},
		{
			name: "suppressed with a reason",
			files: map[string]string{"internal/a/a.go": `package a

//lint:allow deadexport the package's entry point
func F() {}
`},
			want: []string{"F (allowed)"},
		},
		{
			name: "an allow without a reason suppresses nothing",
			files: map[string]string{"internal/a/a.go": `package a

//lint:allow deadexport
func F() {}
`},
			want: []string{"F"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			for name, src := range c.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, diags, err := lint.Check(root, "m", []string{"./..."}, []*lint.Analyzer{lint.DeadExport()})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range diags {
				m := deadNameRE.FindStringSubmatch(d.Message)
				if m == nil {
					t.Fatalf("unexpected message: %s", d)
				}
				if d.Suppressed {
					m[1] += " (allowed)"
				}
				got = append(got, m[1])
			}
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("reported %q, want %q", got, c.want)
			}
		})
	}
}
