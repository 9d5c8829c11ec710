// Package bench implements RodentStore's paper experiments. Figure2
// regenerates the paper's only evaluation figure — average disk pages read
// per query over the CarTel trajectory data for layouts N1..N4 and a
// secondary R-tree (paper §6, Figure 2) — and the Ext-1..8 functions run the
// ablations DESIGN.md indexes (curve choice, cell size, page size, codecs,
// fold rendering, row vs column, advisor quality, reorganization
// strategies). cmd/rsbench is their one runner; the engine's speed is
// tracked by the gating benchmark (BENCHMARK.json), not here.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rodentstore/internal/algebra"
	"rodentstore/internal/cartel"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/rtree"
	"rodentstore/internal/table"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/wal"
)

// Config parameterizes an experiment run.
type Config struct {
	// N is the number of observations (the paper uses 10,000,000; the
	// default benchmarks use a smaller N — the *shape* of Figure 2 is scale
	// invariant because all layouts shrink proportionally).
	N int
	// Queries is the number of random window queries (paper: 200).
	Queries int
	// AreaFraction is each query's area as a fraction of the region
	// (paper: 0.01).
	AreaFraction float64
	// PageSize is the disk page size (paper: 1 KB; see DESIGN.md).
	PageSize int
	// GridCells is the per-axis cell count of grid layouts. The paper's
	// cells are "about 400 m²" over greater Boston; 64×64 is the matching
	// order of magnitude for the ~10×13 km box.
	GridCells int
	// Dir is the scratch directory for database files.
	Dir string
	// Seed drives data and query generation.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(dir string) Config {
	return Config{
		N: 200_000, Queries: 50, AreaFraction: 0.01,
		PageSize: 1024, GridCells: 64, Dir: dir, Seed: 1,
	}
}

// Result is one measured layout.
type Result struct {
	Name       string
	Layout     string
	PagesQuery float64 // avg pages read per query
	SeeksQuery float64 // avg seeks per query
	SeekDist   float64 // avg seek distance (pages of head travel) per query
	MsQuery    float64 // avg wall milliseconds per query
	RowsQuery  float64 // avg result rows
	DataPages  uint64  // pages occupied by the table (and index)
}

// env is one open database for an experiment.
type env struct {
	file *pager.File
	log  *wal.Log
	eng  *table.Engine
	path string
}

func newEnv(cfg Config, name string) (*env, error) {
	path := filepath.Join(cfg.Dir, name+".rdnt")
	os.Remove(path)
	os.Remove(path + ".wal")
	file, err := pager.Create(path, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	e := &env{file: file, path: path}
	if e.log, err = wal.Open(path + ".wal"); err != nil {
		e.close()
		return nil, err
	}
	cat, err := catalog.Load(file)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.eng, err = table.NewEngine(file, cat, txn.NewManager(file, e.log)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close releases the database and its log and removes both files.
func (e *env) close() {
	if e.log != nil {
		e.log.Close()
	}
	e.file.Close()
	os.Remove(e.path)
	os.Remove(e.path + ".wal")
}

// queryPred builds the scan predicate for one window query.
func queryPred(q cartel.Query) algebra.Predicate {
	return algebra.True.
		And("lat", algebra.OpGe, value.NewFloat(q.MinLat)).
		And("lat", algebra.OpLt, value.NewFloat(q.MaxLat)).
		And("lon", algebra.OpGe, value.NewFloat(q.MinLon)).
		And("lon", algebra.OpLt, value.NewFloat(q.MaxLon))
}

// runQueries measures the average footprint of the workload against a
// loaded table. Fields restricts the scan projection (nil = all stored).
func runQueries(e *env, tableName string, queries []cartel.Query, fields []string) (Result, error) {
	return runQueriesOpt(e, tableName, queries, fields, false)
}

// runQueriesOpt optionally disables zone-map pruning so baseline layouts
// behave like the paper's plain heap scans (RodentStore's zone maps would
// otherwise act as an implicit index; see DESIGN.md).
func runQueriesOpt(e *env, tableName string, queries []cartel.Query, fields []string, noZone bool) (Result, error) {
	var r Result
	for _, q := range queries {
		e.file.ResetStats()
		start := time.Now()
		cur, err := e.eng.Scan(tableName, table.ScanOptions{Fields: fields, Pred: queryPred(q), NoZonePrune: noZone})
		if err != nil {
			return r, err
		}
		rows := 0
		for {
			_, ok, err := cur.Next()
			if err != nil {
				return r, err
			}
			if !ok {
				break
			}
			rows++
		}
		cur.Close()
		elapsed := time.Since(start)
		s := e.file.Stats()
		r.PagesQuery += float64(s.PageReads)
		r.SeeksQuery += float64(s.Seeks)
		r.SeekDist += float64(s.SeekDistance)
		r.MsQuery += float64(elapsed.Microseconds()) / 1000.0
		r.RowsQuery += float64(rows)
	}
	n := float64(len(queries))
	r.PagesQuery /= n
	r.SeeksQuery /= n
	r.SeekDist /= n
	r.MsQuery /= n
	r.RowsQuery /= n
	r.DataPages = e.file.NumPages()
	return r, nil
}

// loadLayout creates and loads the Traces table under the given layout.
func loadLayout(cfg Config, name, layout string, rows []value.Row) (*env, error) {
	e, err := newEnv(cfg, name)
	if err != nil {
		return nil, err
	}
	if err := e.eng.Create("Traces", cartel.Schema(), layout); err != nil {
		e.close()
		return nil, err
	}
	if err := e.eng.Load("Traces", rows); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// caseStudyLayouts returns the paper's §6 layouts in figure order.
// The chunk size keeps blocks small relative to 1 KB pages so pruning
// granularity matches page granularity.
func caseStudyLayouts(cfg Config) []struct{ Name, Layout string } {
	g := cfg.GridCells
	// The paper's N2 comprehension reads "orderby r.t, groupby r.ID":
	// sort by time, then cluster rows by trajectory (keeping time order
	// within each trajectory). Expressions apply inside-out, so the
	// clustering groupby wraps the orderby.
	return []struct{ Name, Layout string }{
		{"N1 (raw + scan)", "chunk[64](rows(Traces))"},
		{"N2 (raw + drop column)", "chunk[64](project[lat,lon](groupby[id](orderby[t](Traces))))"},
		{"N3 (grid)", fmt.Sprintf("chunk[64](grid[lat,lon; %d,%d](project[lat,lon](groupby[id](orderby[t](Traces)))))", g, g)},
		{"N4 (zcurve + delta)", fmt.Sprintf("chunk[64](delta[lat,lon](zorder(grid[lat,lon; %d,%d](project[lat,lon](groupby[id](orderby[t](Traces)))))))", g, g)},
	}
}

// PaperFigure2 holds the paper's reported pages/query for reference.
var PaperFigure2 = map[string]float64{
	"N1 (raw + scan)":        206064,
	"N2 (raw + drop column)": 82430,
	"N3 (grid)":              1792,
	"N4 (zcurve + delta)":    771,
	"rtree":                  15780,
}

// Figure2 reproduces the paper's Figure 2: avg pages/query for N1, N2, N3,
// N4 and the secondary R-tree baseline.
func Figure2(cfg Config) ([]Result, error) {
	rows := cartel.Generate(cartel.DefaultConfig(cfg.N))
	queries := cartel.Queries(cfg.Queries, cfg.AreaFraction, cfg.Seed+100)

	var out []Result
	for i, l := range caseStudyLayouts(cfg) {
		e, err := loadLayout(cfg, "fig2", l.Layout, rows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		fields := []string{"lat", "lon"}
		// N1 and N2 are the paper's plain heap scans: no zone-map pruning,
		// every tuple inspected. N3/N4 use the grid machinery.
		noZone := i < 2
		r, err := runQueriesOpt(e, "Traces", queries, fields, noZone)
		e.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		r.Name, r.Layout = l.Name, l.Layout
		out = append(out, r)
	}

	rt, err := rtreeBaseline(cfg, rows, queries)
	if err != nil {
		return nil, err
	}
	out = append(out, rt)
	return out, nil
}

// rtreeBaseline measures the paper's R-tree comparison: a trajectory-
// clustered heap with a secondary R-tree whose leaf entries are the
// bounding boxes of whole trajectories (trips). Taxis roam large parts of
// the city, so the dense data yields "a high number of overlapping bounding
// boxes, each requiring a random I/O and containing a large number of
// observations" (paper §6) — the reason the R-tree loses to the grid.
func rtreeBaseline(cfg Config, rows []value.Row, queries []cartel.Query) (Result, error) {
	e, err := loadLayout(cfg, "fig2rt",
		"chunk[64](project[lat,lon](groupby[id](orderby[t](Traces))))", rows)
	if err != nil {
		return Result{}, err
	}
	defer e.close()

	// Build the secondary index over the stored order: one bounding box per
	// trajectory. Trip boundaries show up as large jumps between
	// consecutive stored points (car change or new trip).
	cur, err := e.eng.Scan("Traces", table.ScanOptions{})
	if err != nil {
		return Result{}, err
	}
	jump := 0.003 // ~40 movement steps: must be a boundary
	var entries []rtree.Entry
	tripRows := make(map[uint64]int64) // rowStart -> row count
	var box rtree.Rect
	count := int64(0)
	rowStart := int64(0)
	pos := int64(0)
	var prevLat, prevLon float64
	flush := func() {
		if count > 0 {
			entries = append(entries, rtree.Entry{Rect: box, Ref: uint64(rowStart)})
			tripRows[uint64(rowStart)] = count
		}
	}
	for {
		row, ok, err := cur.Next()
		if err != nil {
			return Result{}, err
		}
		if !ok {
			break
		}
		lat, lon := row[0].Float(), row[1].Float()
		boundary := count > 0 && (abs(lat-prevLat) > jump || abs(lon-prevLon) > jump)
		if boundary {
			flush()
			count = 0
		}
		p := rtree.Point(lat, lon)
		if count == 0 {
			box = p
			rowStart = pos
		} else {
			box = box.Union(p)
		}
		count++
		prevLat, prevLon = lat, lon
		pos++
	}
	flush()
	tr, err := rtree.BulkLoad(e.file, entries)
	if err != nil {
		return Result{}, err
	}

	var r Result
	for _, q := range queries {
		e.file.ResetStats()
		start := time.Now()
		query := rtree.Rect{MinX: q.MinLat, MinY: q.MinLon, MaxX: q.MaxLat, MaxY: q.MaxLon}
		var hits []uint64
		if err := tr.Search(query, func(en rtree.Entry) bool {
			hits = append(hits, en.Ref)
			return true
		}); err != nil {
			return Result{}, err
		}
		// Each hit fetches its whole trajectory (random I/O) and
		// post-filters the observations.
		rowsFound := 0
		for _, h := range hits {
			cur, err := e.eng.GetElement("Traces", nil, []int64{int64(h)})
			if err != nil {
				return Result{}, err
			}
			for i := int64(0); i < tripRows[h]; i++ {
				row, ok, err := cur.Next()
				if err != nil {
					return Result{}, err
				}
				if !ok {
					break
				}
				lat, lon := row[0].Float(), row[1].Float()
				if lat >= q.MinLat && lat < q.MaxLat && lon >= q.MinLon && lon < q.MaxLon {
					rowsFound++
				}
			}
			cur.Close()
		}
		s := e.file.Stats()
		r.PagesQuery += float64(s.PageReads)
		r.SeeksQuery += float64(s.Seeks)
		r.SeekDist += float64(s.SeekDistance)
		r.MsQuery += float64(time.Since(start).Microseconds()) / 1000.0
		r.RowsQuery += float64(rowsFound)
	}
	n := float64(len(queries))
	r.PagesQuery /= n
	r.SeeksQuery /= n
	r.SeekDist /= n
	r.MsQuery /= n
	r.RowsQuery /= n
	r.DataPages = e.file.NumPages()
	r.Name = "rtree"
	r.Layout = "trajectory-clustered heap + secondary R-tree (one box per trip)"
	return r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
