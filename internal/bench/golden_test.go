package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/bench/testdata/*.golden from the current code")

// goldenConfig is the fixed input of the paper-figure golden files. The
// files pin the deterministic outputs of fig2, curve and dsm — pages,
// seeks, seek distance, result rows and file size — byte for byte; wall
// time is the only Result field left out.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(t.TempDir())
	cfg.N = 20_000
	cfg.Queries = 8
	cfg.GridCells = 32
	cfg.Seed = 1
	return cfg
}

func goldenText(results []Result) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "%s\tpages/query=%s\tseeks/query=%s\tseekdist/query=%s\trows/query=%s\tdatapages=%d\n",
			r.Name, g(r.PagesQuery), g(r.SeeksQuery), g(r.SeekDist), g(r.RowsQuery), r.DataPages)
	}
	return sb.String()
}

// TestPaperFiguresGolden asserts that the paper-figure experiments read
// exactly the pages, in exactly the seek pattern, and return exactly the
// rows recorded in testdata/*.golden. A change to the scan path, the
// planner, the segment format or the pager that moves any of them fails
// here; regenerate with `go test ./internal/bench -run Golden -update` only
// when the move is the point of the change, and say so in the PR.
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	experiments := []struct {
		name string
		run  func(Config) ([]Result, error)
	}{
		{"fig2", Figure2},
		{"curve", CurveSeeks},
		{"dsm", func(cfg Config) ([]Result, error) { return RowVsColumn(cfg, 8) }},
	}
	for _, ex := range experiments {
		t.Run(ex.name, func(t *testing.T) {
			results, err := ex.run(goldenConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenText(results)
			path := filepath.Join("testdata", ex.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from %s\n got:\n%s\nwant:\n%s", ex.name, path, got, want)
			}
		})
	}
}
