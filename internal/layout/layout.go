// Package layout is RodentStore's algebra interpreter (paper §2, §4.2): it
// compiles a storage-algebra expression into a physical storage plan — the
// ordered pipeline of relational steps to apply to the canonical row stream,
// followed by the terminal physical mapping (vertical partitioning into
// segments, grid partitioning with a cell-ordering curve, per-field codecs,
// and block chunking).
//
// The declarative gap the paper describes ("the storage algebra is
// declarative ... there are many layout alternatives") is resolved here with
// the paper's own defaults: absent an explicit ordering, all segments of a
// table are stored and walked in the same order so multi-segment scans never
// re-sort (§4.1), and data is dense-packed into blocks.
package layout

import (
	"fmt"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// StepKind enumerates pipeline steps.
type StepKind string

// Pipeline step kinds, applied to the row stream in order.
const (
	StepSelect  StepKind = "select"
	StepOrderBy StepKind = "orderby"
	StepGroupBy StepKind = "groupby"
	StepLimit   StepKind = "limit"
	StepProject StepKind = "project"
	StepFold    StepKind = "fold"
	StepUnfold  StepKind = "unfold"
)

// Step is one relational transformation of the row stream, applied at
// render time (inside-out expression order).
type Step struct {
	Kind   StepKind
	Pred   algebra.Predicate  // StepSelect
	Keys   []algebra.OrderKey // StepOrderBy
	Fields []string           // StepGroupBy, StepProject, StepFold values, StepUnfold values
	By     []string           // StepFold
	Kinds  []value.Kind       // StepUnfold value types
	N      int                // StepLimit
}

// SegmentDef is one vertical partition of the final schema.
type SegmentDef struct {
	Fields []string
	Codecs []string // parallel to Fields
}

// GridSpec is the grid partitioning of the final row stream.
type GridSpec struct {
	Dims  []algebra.GridDim
	Curve algebra.CurveKind
}

// CompactionSpec is a run-compaction policy directive: the table keeps a
// leveled hierarchy of organized runs between the main rendering and the
// unorganized tails, folded one level at a time by the merge worker.
type CompactionSpec struct {
	Kind   algebra.CompactKind
	Fanout int
}

// Spec is a compiled physical storage plan.
type Spec struct {
	Table        string
	Expr         string // canonical expression text (the persisted form)
	Steps        []Step
	Segments     []SegmentDef
	Grid         *GridSpec
	RowsPerBlock int
	// Compaction, when set, maintains the table as leveled runs instead of
	// one monolithic rendering (see internal/table compaction).
	Compaction *CompactionSpec
	// FinalSchema is the schema of the rendered row stream (after steps).
	FinalSchema *value.Schema
}

// Compile interprets an algebra expression against the base-table schemas
// and produces the physical plan. It rejects compositions the backend does
// not materialize (multiple grids, fold+grid) and the operators a table
// layout does not support (prejoin, transpose).
func Compile(expr algebra.Expr, schemas map[string]*value.Schema) (*Spec, error) {
	final, err := algebra.Infer(expr, schemas)
	if err != nil {
		return nil, err
	}
	table, err := algebra.BaseOf(expr)
	if err != nil {
		return nil, fmt.Errorf("layout: %w (prejoin is not supported in a table layout)", err)
	}

	c := &compiler{schemas: schemas}
	if err := c.walk(expr); err != nil {
		return nil, err
	}

	spec := &Spec{
		Table:        table,
		Expr:         expr.String(),
		Steps:        c.steps,
		Grid:         c.grid,
		RowsPerBlock: c.rowsPerBlock,
		Compaction:   c.compaction,
		FinalSchema:  final,
	}

	// Terminal segmentation over the final schema.
	names := final.Names()
	codecFor := func(f string) string { return c.codecs[f] }
	switch {
	case c.cols && c.groups != nil:
		return nil, fmt.Errorf("layout: cols and colgroup cannot both appear")
	case c.cols:
		for _, f := range names {
			spec.Segments = append(spec.Segments, SegmentDef{Fields: []string{f}, Codecs: []string{codecFor(f)}})
		}
	case c.groups != nil:
		covered := make(map[string]bool)
		for _, g := range c.groups {
			def := SegmentDef{Fields: g, Codecs: make([]string, len(g))}
			for i, f := range g {
				def.Codecs[i] = codecFor(f)
				covered[f] = true
			}
			spec.Segments = append(spec.Segments, def)
		}
		// Fields not listed in any group form a final catch-all segment,
		// so a colgroup need not enumerate the whole schema.
		var rest SegmentDef
		for _, f := range names {
			if !covered[f] {
				rest.Fields = append(rest.Fields, f)
				rest.Codecs = append(rest.Codecs, codecFor(f))
			}
		}
		if len(rest.Fields) > 0 {
			spec.Segments = append(spec.Segments, rest)
		}
	default:
		def := SegmentDef{Fields: names, Codecs: make([]string, len(names))}
		for i, f := range names {
			def.Codecs[i] = codecFor(f)
		}
		spec.Segments = []SegmentDef{def}
	}

	// Compressed fields must survive into the final schema.
	for f := range c.codecs {
		if final.Index(f) < 0 {
			return nil, fmt.Errorf("layout: compressed field %q is projected away", f)
		}
	}
	// Grid dimensions must survive into the final schema.
	if spec.Grid != nil {
		for _, d := range spec.Grid.Dims {
			if final.Index(d.Field) < 0 {
				return nil, fmt.Errorf("layout: grid dimension %q is projected away", d.Field)
			}
		}
		if c.hasFold {
			return nil, fmt.Errorf("layout: grid over folded data is not supported")
		}
	}
	// Compaction maintains per-run renderings; compositions whose physical
	// mapping is global — a grid's cell directory and curve span the whole
	// table, fold's groups span every row — cannot be kept per run.
	if spec.Compaction != nil {
		if spec.Grid != nil {
			return nil, fmt.Errorf("layout: %s compaction over a gridded layout is not supported", spec.Compaction.Kind)
		}
		if c.hasFold {
			return nil, fmt.Errorf("layout: %s compaction over folded data is not supported", spec.Compaction.Kind)
		}
		for _, st := range c.steps {
			if st.Kind == StepLimit {
				return nil, fmt.Errorf("layout: %s compaction cannot maintain a limit step", spec.Compaction.Kind)
			}
		}
	}
	if spec.RowsPerBlock == 0 {
		spec.RowsPerBlock = 4096
	}
	return spec, nil
}

type compiler struct {
	schemas      map[string]*value.Schema
	steps        []Step // built outside-in, reversed at the end by walk order
	codecs       map[string]string
	grid         *GridSpec
	curve        algebra.CurveKind
	cols         bool
	groups       [][]string
	rowsPerBlock int
	hasFold      bool
	compaction   *CompactionSpec
}

// walk descends to the base first so steps accumulate inside-out (base
// transformations first).
func (c *compiler) walk(e algebra.Expr) error {
	if c.codecs == nil {
		c.codecs = make(map[string]string)
	}
	switch n := e.(type) {
	case *algebra.Base:
		return nil
	case *algebra.Rows:
		return c.walk(n.Input)
	case *algebra.Cols:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.cols || c.groups != nil {
			return fmt.Errorf("layout: multiple segmentation directives")
		}
		c.cols = true
		return nil
	case *algebra.ColGroups:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.cols || c.groups != nil {
			return fmt.Errorf("layout: multiple segmentation directives")
		}
		c.groups = n.Groups
		return nil
	case *algebra.Project:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepProject, Fields: n.Fields})
		return nil
	case *algebra.Select:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepSelect, Pred: n.Pred})
		return nil
	case *algebra.OrderBy:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepOrderBy, Keys: n.Keys})
		return nil
	case *algebra.GroupBy:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepGroupBy, Fields: n.Fields})
		return nil
	case *algebra.Limit:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepLimit, N: n.N})
		return nil
	case *algebra.Fold:
		// Resolve before the fold changes the schema.
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepFold, Fields: n.Values, By: n.By})
		c.hasFold = true
		return nil
	case *algebra.Unfold:
		inner, ok := findFold(n.Input)
		if !ok {
			return fmt.Errorf("layout: unfold requires a fold in its input")
		}
		// Types of the folded values come from the schema below the fold.
		preFold, err := algebra.Infer(inner.Input, c.schemas)
		if err != nil {
			return err
		}
		kinds := make([]value.Kind, len(inner.Values))
		for i, f := range inner.Values {
			kinds[i] = preFold.Fields[preFold.Index(f)].Type
		}
		if err := c.walk(n.Input); err != nil {
			return err
		}
		c.steps = append(c.steps, Step{Kind: StepUnfold, Fields: inner.Values, Kinds: kinds})
		c.hasFold = false
		return nil
	case *algebra.Prejoin:
		return fmt.Errorf("layout: prejoin is not supported in a table layout")
	case *algebra.Transpose:
		return fmt.Errorf("layout: transpose is not supported in a table layout")
	case *algebra.Compress:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		for _, f := range n.Fields {
			if prev, dup := c.codecs[f]; dup {
				return fmt.Errorf("layout: field %q compressed twice (%s, %s)", f, prev, n.Codec)
			}
			c.codecs[f] = n.Codec
		}
		return nil
	case *algebra.Grid:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.grid != nil {
			return fmt.Errorf("layout: multiple grid transforms")
		}
		c.grid = &GridSpec{Dims: n.Dims, Curve: algebra.CurveRowMajor}
		return nil
	case *algebra.Curve:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.grid == nil {
			return fmt.Errorf("layout: %s requires a grid input", n.Kind)
		}
		if n.Kind == algebra.CurveHilbert && len(c.grid.Dims) != 2 {
			return fmt.Errorf("layout: hilbert curve requires exactly 2 grid dimensions")
		}
		c.grid.Curve = n.Kind
		return nil
	case *algebra.Chunk:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.rowsPerBlock != 0 {
			return fmt.Errorf("layout: multiple chunk directives")
		}
		c.rowsPerBlock = n.N
		return nil
	case *algebra.Compact:
		if err := c.walk(n.Input); err != nil {
			return err
		}
		if c.compaction != nil {
			return fmt.Errorf("layout: multiple compaction directives")
		}
		c.compaction = &CompactionSpec{Kind: n.Kind, Fanout: n.Fanout}
		return nil
	default:
		return fmt.Errorf("layout: unsupported node %T", e)
	}
}

func findFold(e algebra.Expr) (*algebra.Fold, bool) {
	var found *algebra.Fold
	algebra.Walk(e, func(x algebra.Expr) {
		if f, ok := x.(*algebra.Fold); ok && found == nil {
			found = f
		}
	})
	return found, found != nil
}

// StoredOrders returns the sort orders the plan stores data in — the basis
// of the API's order_list (paper §4.1). The outermost orderby step that is
// not disturbed by a later reordering step wins; grouped layouts report
// their grouping fields first.
func (s *Spec) StoredOrders() [][]algebra.OrderKey {
	var out [][]algebra.OrderKey
	// Walk steps backwards: the last reordering step determines the final
	// physical order (grid reorders everything and is handled below).
	if s.Grid == nil {
	loop:
		for i := len(s.Steps) - 1; i >= 0; i-- {
			st := s.Steps[i]
			switch st.Kind {
			case StepOrderBy:
				out = append(out, st.Keys)
				break loop
			case StepGroupBy:
				keys := make([]algebra.OrderKey, len(st.Fields))
				for j, f := range st.Fields {
					keys[j] = algebra.OrderKey{Field: f}
				}
				out = append(out, keys)
				break loop
			case StepFold, StepUnfold:
				break loop
			}
		}
	}
	return out
}
