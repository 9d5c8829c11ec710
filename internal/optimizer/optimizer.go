// Package optimizer implements RodentStore's storage design optimizer
// (paper §5): given a relational schema, data statistics and a workload of
// queries, it searches the space of storage-algebra expressions and returns
// the one minimizing the workload's estimated cost.
//
// As the paper prescribes, the cost model "counts bytes of I/O as well as
// disk seeks" and ignores CPU. Plan enumeration is the hard part — "most of
// the above transformations lead to an exponential number of physical
// designs" — so the search combines exhaustive enumeration of the small
// dimensions (ordering, grid, curve, codecs) with simulated annealing over
// column groupings (the 2^n dimension the paper calls out).
package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"rodentstore/internal/algebra"
	"rodentstore/internal/compress"
	"rodentstore/internal/cost"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Query is one workload entry: the fields it reads, its range predicate,
// and a relative weight (frequency).
type Query struct {
	Fields []string // nil = all fields
	Pred   algebra.Predicate
	Weight float64
}

// Workload is a weighted set of queries (paper §5: "a workload of SQL
// queries" reduced to their storage-level access patterns).
type Workload struct {
	Queries []Query
}

// FieldStats summarizes one column.
type FieldStats struct {
	AvgBytes   float64 // plain encoded width
	Min, Max   float64 // numeric range (0,0 for non-numeric)
	Numeric    bool
	BestCodec  string  // best measured codec ("" = none)
	CodecRatio float64 // measured compressed/raw ratio for BestCodec
}

// TableStats holds the statistics the cost model needs.
type TableStats struct {
	Schema   *value.Schema
	RowCount int64
	Fields   map[string]*FieldStats
}

// CollectStats samples the relation to estimate per-field widths, ranges
// and achievable compression. Codec ratios are measured by actually
// encoding a value-ordered sample (approximating post-clustering locality,
// which is how compressed segments are laid out).
func CollectStats(rel transforms.Relation, sample int) TableStats {
	if sample <= 0 || sample > len(rel.Rows) {
		sample = len(rel.Rows)
	}
	stats := TableStats{
		Schema:   rel.Schema,
		RowCount: int64(len(rel.Rows)),
		Fields:   make(map[string]*FieldStats, rel.Schema.Arity()),
	}
	var col vec.Vector
	for ci, f := range rel.Schema.Fields {
		fs := &FieldStats{Min: math.Inf(1), Max: math.Inf(-1), CodecRatio: 1}
		fs.Numeric = f.Type == value.Int || f.Type == value.Float
		var vals []value.Value
		var rawBytes int
		for i := 0; i < sample; i++ {
			v := rel.Rows[i][ci]
			if v.IsNull() {
				continue
			}
			vals = append(vals, v)
			rawBytes += len(value.AppendValue(nil, f.Type, v))
			if fs.Numeric {
				x := v.Float()
				if x < fs.Min {
					fs.Min = x
				}
				if x > fs.Max {
					fs.Max = x
				}
			}
		}
		if len(vals) > 0 {
			fs.AvgBytes = float64(rawBytes) / float64(len(vals))
		}
		if !fs.Numeric {
			fs.Min, fs.Max = 0, 0
		}
		// Measure codecs on the value-ordered sample, through the path the
		// segment writer encodes with.
		ordered := append([]value.Value(nil), vals...)
		sort.Slice(ordered, func(a, b int) bool { return value.Compare(ordered[a], ordered[b]) < 0 })
		col.Reset(f.Type)
		fits := true // false when a value is not of the field's kind
		for _, v := range ordered {
			fits = fits && col.AppendValue(v) == nil
		}
		for _, name := range compress.Names() {
			if name == "none" || !fits {
				continue
			}
			c, _ := compress.Lookup(name)
			enc, err := compress.EncodeVec(c, nil, f.Type, &col)
			if err != nil {
				continue
			}
			ratio := 1.0
			if rawBytes > 0 {
				ratio = float64(len(enc)) / float64(rawBytes)
			}
			if ratio < fs.CodecRatio {
				fs.CodecRatio = ratio
				fs.BestCodec = name
			}
		}
		// Only keep codecs that actually help.
		if fs.CodecRatio > 0.9 {
			fs.BestCodec, fs.CodecRatio = "", 1
		}
		stats.Fields[f.Name] = fs
	}
	return stats
}

// Options bound the search.
type Options struct {
	// GridCells are the candidate per-axis cell counts.
	GridCells []int
	// AnnealingSteps bounds the simulated-annealing column-group search.
	AnnealingSteps int
	// Seed makes the annealing deterministic.
	Seed int64
	// PageSize is the page payload used for page-count math.
	PageSize int
}

// DefaultOptions returns the standard search bounds.
func DefaultOptions() Options {
	return Options{GridCells: []int{16, 32, 64, 128}, AnnealingSteps: 400, Seed: 1, PageSize: 1020}
}

// Candidate is one explored design with its estimated workload cost.
type Candidate struct {
	Expr string
	Ms   float64
}

// Recommendation is the optimizer's output.
type Recommendation struct {
	Expr       string
	Ms         float64
	Candidates []Candidate // all explored designs, best first
}

// design is the internal, structured candidate representation.
type design struct {
	groups [][]string // vertical partitions (nil = single row group)
	order  []string   // orderby keys
	grid   []algebra.GridDim
	curve  algebra.CurveKind
	codecs map[string]string
}

// expr renders the design as a storage-algebra expression over table.
func (d design) expr(table string) string {
	s := table
	if len(d.order) > 0 {
		s = "orderby[" + strings.Join(d.order, ",") + "](" + s + ")"
	}
	if len(d.grid) > 0 {
		fields := make([]string, len(d.grid))
		cells := make([]string, len(d.grid))
		for i, g := range d.grid {
			fields[i] = g.Field
			cells[i] = fmt.Sprintf("%d", g.Cells)
		}
		s = "grid[" + strings.Join(fields, ",") + "; " + strings.Join(cells, ",") + "](" + s + ")"
		if d.curve != "" && d.curve != algebra.CurveRowMajor {
			s = string(d.curve) + "(" + s + ")"
		}
	}
	if len(d.groups) > 0 {
		// colgroup with singleton groups is exactly cols; keeping the
		// colgroup form makes every grouping uniform and parseable.
		parts := make([]string, len(d.groups))
		for i, g := range d.groups {
			parts[i] = strings.Join(g, ",")
		}
		s = "colgroup[" + strings.Join(parts, "; ") + "](" + s + ")"
	} else {
		s = "rows(" + s + ")"
	}
	// Codec wrappers, grouped per codec for compact expressions.
	byCodec := map[string][]string{}
	for f, c := range d.codecs {
		if c != "" {
			byCodec[c] = append(byCodec[c], f)
		}
	}
	codecNames := make([]string, 0, len(byCodec))
	for c := range byCodec {
		codecNames = append(codecNames, c)
	}
	sort.Strings(codecNames)
	for _, c := range codecNames {
		fs := byCodec[c]
		sort.Strings(fs)
		s = c + "[" + strings.Join(fs, ",") + "](" + s + ")"
	}
	return s
}

// Recommend searches designs for the workload and returns the best.
func Recommend(table string, stats TableStats, w Workload, model cost.Model, opts Options) (Recommendation, error) {
	if stats.Schema == nil || stats.RowCount == 0 {
		return Recommendation{}, fmt.Errorf("optimizer: empty statistics")
	}
	if len(w.Queries) == 0 {
		return Recommendation{}, fmt.Errorf("optimizer: empty workload")
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 1020
	}

	var cands []design
	names := stats.Schema.Names()

	// 1. Row store, column store, and annealed column groups.
	cands = append(cands, design{})
	var colGroups [][]string
	for _, f := range names {
		colGroups = append(colGroups, []string{f})
	}
	cands = append(cands, design{groups: colGroups})
	if g := annealGroups(table, stats, w, model, opts); g != nil {
		cands = append(cands, design{groups: g})
	}

	// 2. Orderings on fields with range predicates.
	for _, f := range rangedFields(stats, w) {
		cands = append(cands, design{order: []string{f}})
	}

	// 3. Grids on pairs of numeric fields co-constrained by some query,
	// with every candidate cell count and curve.
	for _, pair := range gridPairs(stats, w) {
		for _, cells := range opts.GridCells {
			dims := []algebra.GridDim{{Field: pair[0], Cells: cells}, {Field: pair[1], Cells: cells}}
			for _, curve := range []algebra.CurveKind{algebra.CurveRowMajor, algebra.CurveZOrder, algebra.CurveHilbert} {
				cands = append(cands, design{grid: dims, curve: curve})
			}
		}
	}

	// 4. Codec assignment: for each structural candidate, add a compressed
	// variant using each field's best measured codec.
	n := len(cands)
	for i := 0; i < n; i++ {
		codecs := map[string]string{}
		for f, fs := range stats.Fields {
			if fs.BestCodec != "" {
				codecs[f] = fs.BestCodec
			}
		}
		if len(codecs) > 0 {
			d := cands[i]
			d.codecs = codecs
			cands = append(cands, d)
		}
	}

	// Score every candidate.
	best := Recommendation{Ms: math.Inf(1)}
	for _, d := range cands {
		ms := workloadCost(d, stats, w, model, opts)
		expr := d.expr(table)
		best.Candidates = append(best.Candidates, Candidate{Expr: expr, Ms: ms})
		if ms < best.Ms {
			best.Ms = ms
			best.Expr = expr
		}
	}
	sort.Slice(best.Candidates, func(i, j int) bool { return best.Candidates[i].Ms < best.Candidates[j].Ms })
	// Sanity: the winning expression must parse.
	if _, err := algebra.Parse(best.Expr); err != nil {
		return Recommendation{}, fmt.Errorf("optimizer: produced invalid expression %q: %w", best.Expr, err)
	}
	return best, nil
}

// rangedFields lists numeric fields any query constrains.
func rangedFields(stats TableStats, w Workload) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range w.Queries {
		for _, f := range q.Pred.Fields() {
			fs, ok := stats.Fields[f]
			if ok && fs.Numeric && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Strings(out)
	return out
}

// gridPairs lists numeric field pairs co-constrained by one query.
func gridPairs(stats TableStats, w Workload) [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for _, q := range w.Queries {
		fields := q.Pred.Fields()
		for i := 0; i < len(fields); i++ {
			for j := i + 1; j < len(fields); j++ {
				a, b := fields[i], fields[j]
				if a > b {
					a, b = b, a
				}
				fa, oka := stats.Fields[a]
				fb, okb := stats.Fields[b]
				if !oka || !okb || !fa.Numeric || !fb.Numeric {
					continue
				}
				key := [2]string{a, b}
				if !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
			}
		}
	}
	return out
}

// workloadCost estimates the total weighted cost of the workload under a
// design (the paper's Σ cost(query) objective).
func workloadCost(d design, stats TableStats, w Workload, model cost.Model, opts Options) float64 {
	total := 0.0
	for _, q := range w.Queries {
		weight := q.Weight
		if weight == 0 {
			weight = 1
		}
		total += weight * model.Ms(queryCost(d, stats, q, opts))
	}
	return total
}

// queryCost is the analytic I/O estimate of one query under a design.
func queryCost(d design, stats TableStats, q Query, opts Options) cost.Estimate {
	names := stats.Schema.Names()
	needed := map[string]bool{}
	if q.Fields == nil {
		for _, f := range names {
			needed[f] = true
		}
	} else {
		for _, f := range q.Fields {
			needed[f] = true
		}
	}
	for _, f := range q.Pred.Fields() {
		needed[f] = true
	}

	// Row-fraction scanned after pruning.
	fraction := 1.0
	seekFactor := 1.0
	if len(d.grid) > 0 {
		cellsTouched := 1.0
		rowsOfCells := 1.0
		constrained := false
		for di, g := range d.grid {
			fs := stats.Fields[g.Field]
			lo, hi, _, _, found := q.Pred.Bounds(g.Field)
			frac := 1.0
			if found && fs.Max > fs.Min {
				loF, hiF := fs.Min, fs.Max
				if !lo.IsNull() {
					loF = lo.Float()
				}
				if !hi.IsNull() {
					hiF = hi.Float()
				}
				frac = (hiF - loF) / (fs.Max - fs.Min)
				constrained = true
			}
			// Cell quantization: boundary cells add 1/cells per dimension.
			frac += 1.0 / float64(g.Cells)
			if frac > 1 {
				frac = 1
			}
			cellsTouched *= frac * float64(g.Cells)
			if di > 0 {
				rowsOfCells *= frac * float64(g.Cells)
			}
			fraction *= frac
		}
		if constrained {
			// Seek count depends on how the curve linearizes touched cells.
			switch d.curve {
			case algebra.CurveZOrder:
				seekFactor = math.Max(1, math.Sqrt(cellsTouched))
			case algebra.CurveHilbert:
				seekFactor = math.Max(1, math.Sqrt(cellsTouched)*0.75)
			default: // row-major: every row of cells is a separate run
				seekFactor = math.Max(1, rowsOfCells)
			}
		}
	} else if len(d.order) > 0 {
		if lo, hi, _, _, found := q.Pred.Bounds(d.order[0]); found {
			fs := stats.Fields[d.order[0]]
			if fs.Max > fs.Min {
				loF, hiF := fs.Min, fs.Max
				if !lo.IsNull() {
					loF = lo.Float()
				}
				if !hi.IsNull() {
					hiF = hi.Float()
				}
				fraction = (hiF-loF)/(fs.Max-fs.Min) + 0.01 // block quantization
				if fraction > 1 {
					fraction = 1
				}
			}
		}
	}

	groups := d.groups
	if groups == nil {
		groups = [][]string{names}
	}
	var est cost.Estimate
	for _, g := range groups {
		read := false
		width := 0.0
		for _, f := range g {
			fs := stats.Fields[f]
			w := fs.AvgBytes
			if c, ok := d.codecs[f]; ok && c == fs.BestCodec {
				w *= fs.CodecRatio
			}
			width += w
			if needed[f] {
				read = true
			}
		}
		if !read {
			continue
		}
		bytes := float64(stats.RowCount) * fraction * width
		est.Pages += uint64(math.Ceil(bytes / float64(opts.PageSize)))
		est.Seeks += uint64(math.Ceil(seekFactor))
		est.Rows += int64(float64(stats.RowCount) * fraction)
	}
	return est
}

// annealGroups searches column groupings with simulated annealing,
// returning nil when no grouping beats the trivial designs it starts from.
func annealGroups(table string, stats TableStats, w Workload, model cost.Model, opts Options) [][]string {
	names := stats.Schema.Names()
	if len(names) < 3 || opts.AnnealingSteps <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(opts.Seed))
	// State: group index per field.
	assign := make([]int, len(names))
	for i := range assign {
		assign[i] = r.Intn(len(names))
	}
	groupsOf := func(a []int) [][]string {
		m := map[int][]string{}
		for i, g := range a {
			m[g] = append(m[g], names[i])
		}
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var out [][]string
		for _, k := range keys {
			out = append(out, m[k])
		}
		return out
	}
	scoreOf := func(a []int) float64 {
		return workloadCost(design{groups: groupsOf(a)}, stats, w, model, opts)
	}
	cur := scoreOf(assign)
	best := append([]int(nil), assign...)
	bestScore := cur
	temp := cur / 10
	for step := 0; step < opts.AnnealingSteps; step++ {
		f := r.Intn(len(names))
		old := assign[f]
		assign[f] = r.Intn(len(names))
		next := scoreOf(assign)
		if next <= cur || r.Float64() < math.Exp((cur-next)/math.Max(temp, 1e-9)) {
			cur = next
			if cur < bestScore {
				bestScore = cur
				best = append(best[:0], assign...)
			}
		} else {
			assign[f] = old
		}
		temp *= 0.99
	}
	return groupsOf(best)
}
