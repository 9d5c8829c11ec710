package layout

import (
	"reflect"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

func schemas() map[string]*value.Schema {
	return map[string]*value.Schema{
		"Traces": value.MustSchema(
			value.Field{Name: "t", Type: value.Int},
			value.Field{Name: "lat", Type: value.Float},
			value.Field{Name: "lon", Type: value.Float},
			value.Field{Name: "id", Type: value.Str},
		),
		"Areas": value.MustSchema(
			value.Field{Name: "area", Type: value.Int},
			value.Field{Name: "zip", Type: value.Int},
		),
	}
}

func compile(t *testing.T, src string) *Spec {
	t.Helper()
	expr, err := algebra.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	spec, err := Compile(expr, schemas())
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return spec
}

func TestCompileRows(t *testing.T) {
	spec := compile(t, "rows(Traces)")
	if spec.Table != "Traces" {
		t.Errorf("table: %s", spec.Table)
	}
	if len(spec.Segments) != 1 {
		t.Fatalf("segments: %d", len(spec.Segments))
	}
	if !reflect.DeepEqual(spec.Segments[0].Fields, []string{"t", "lat", "lon", "id"}) {
		t.Errorf("fields: %v", spec.Segments[0].Fields)
	}
	if len(spec.Steps) != 0 || spec.Grid != nil {
		t.Errorf("rows should have no steps or grid: %+v", spec)
	}
	if spec.RowsPerBlock != 4096 {
		t.Errorf("default rows/block: %d", spec.RowsPerBlock)
	}
}

func TestCompileCols(t *testing.T) {
	spec := compile(t, "cols(Traces)")
	if len(spec.Segments) != 4 {
		t.Fatalf("segments: %d", len(spec.Segments))
	}
	for i, f := range []string{"t", "lat", "lon", "id"} {
		if !reflect.DeepEqual(spec.Segments[i].Fields, []string{f}) {
			t.Errorf("segment %d: %v", i, spec.Segments[i].Fields)
		}
	}
}

func TestCompileColGroupsWithRemainder(t *testing.T) {
	spec := compile(t, "colgroup[lat,lon](Traces)")
	if len(spec.Segments) != 2 {
		t.Fatalf("segments: %d", len(spec.Segments))
	}
	if !reflect.DeepEqual(spec.Segments[0].Fields, []string{"lat", "lon"}) {
		t.Errorf("group 0: %v", spec.Segments[0].Fields)
	}
	if !reflect.DeepEqual(spec.Segments[1].Fields, []string{"t", "id"}) {
		t.Errorf("remainder: %v", spec.Segments[1].Fields)
	}
}

func TestCompileCaseStudyN4(t *testing.T) {
	// The paper's most elaborate layout: delta(zorder(grid(project(orderby(groupby)))))
	spec := compile(t, "delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces))))))")
	wantSteps := []StepKind{StepGroupBy, StepOrderBy, StepProject}
	if len(spec.Steps) != len(wantSteps) {
		t.Fatalf("steps: %+v", spec.Steps)
	}
	for i, k := range wantSteps {
		if spec.Steps[i].Kind != k {
			t.Errorf("step %d: %s, want %s", i, spec.Steps[i].Kind, k)
		}
	}
	if spec.Grid == nil || spec.Grid.Curve != algebra.CurveZOrder {
		t.Fatalf("grid: %+v", spec.Grid)
	}
	if spec.Grid.Dims[0].Field != "lat" || spec.Grid.Dims[0].Cells != 64 {
		t.Errorf("dims: %+v", spec.Grid.Dims)
	}
	if len(spec.Segments) != 1 || !reflect.DeepEqual(spec.Segments[0].Codecs, []string{"delta", "delta"}) {
		t.Errorf("segments: %+v", spec.Segments)
	}
	if spec.FinalSchema.String() != "lat:float, lon:float" {
		t.Errorf("final schema: %s", spec.FinalSchema)
	}
}

func TestCompileFold(t *testing.T) {
	spec := compile(t, "fold[zip; area](Areas)")
	if len(spec.Steps) != 1 || spec.Steps[0].Kind != StepFold {
		t.Fatalf("steps: %+v", spec.Steps)
	}
	if spec.FinalSchema.String() != "area:int, folded_zip:list" {
		t.Errorf("final schema: %s", spec.FinalSchema)
	}
	if len(spec.Segments) != 1 || len(spec.Segments[0].Fields) != 2 {
		t.Errorf("segments: %+v", spec.Segments)
	}
}

func TestCompileUnfold(t *testing.T) {
	spec := compile(t, "unfold(fold[zip; area](Areas))")
	if len(spec.Steps) != 2 || spec.Steps[1].Kind != StepUnfold {
		t.Fatalf("steps: %+v", spec.Steps)
	}
	if spec.Steps[1].Kinds[0] != value.Int {
		t.Errorf("unfold kinds: %v", spec.Steps[1].Kinds)
	}
}

func TestCompileChunk(t *testing.T) {
	spec := compile(t, "chunk[512](rows(Traces))")
	if spec.RowsPerBlock != 512 {
		t.Errorf("rows/block: %d", spec.RowsPerBlock)
	}
}

func TestCompileSelectLimit(t *testing.T) {
	spec := compile(t, "limit[10](select[lat > 42.0](Traces))")
	if len(spec.Steps) != 2 || spec.Steps[0].Kind != StepSelect || spec.Steps[1].Kind != StepLimit {
		t.Fatalf("steps: %+v", spec.Steps)
	}
	if spec.Steps[1].N != 10 {
		t.Errorf("limit: %d", spec.Steps[1].N)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"cols(cols(Traces))",                        // double segmentation
		"colgroup[lat](cols(Traces))",               // mixed segmentation
		"delta[lat](delta[lat](Traces))",            // double compression
		"grid[lat; 4](grid[lon; 4](Traces))",        // double grid
		"chunk[2](chunk[3](Traces))",                // double chunk
		"hilbert(grid[lat; 8](Traces))",             // hilbert needs 2 dims
		"prejoin[area](Areas, Areas)",               // prejoin in layout
		"transpose(Traces)",                         // transpose in layout
		"project[lat](delta[lon](Traces))",          // compressed field projected away
		"project[t](grid[lat,lon; 4,4](Traces))",    // grid dims projected away
		"grid[area; 4](fold[zip; area](Areas))",     // grid over fold
		"unfold(Areas)",                             // unfold without fold (also caught by Infer)
		"sizetiered[4](leveled[4](Traces))",         // double compaction directive
		"sizetiered[4](grid[lat,lon; 4,4](Traces))", // per-run grids break global cell addressing
		"leveled[4](fold[zip; area](Areas))",        // fold groups globally
		"leveled[4](limit[10](Traces))",             // limit is a whole-table property
	}
	for _, src := range bad {
		e, err := algebra.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, err = Compile(e, schemas())
		if err == nil {
			t.Errorf("Compile(%q) should fail", src)
		} else if strings.Contains(err.Error(), "transforms.") {
			t.Errorf("Compile(%q) refusal names an internal package: %v", src, err)
		}
	}
}

func TestCompileCompaction(t *testing.T) {
	spec := compile(t, "sizetiered[4](orderby[t](Traces))")
	if spec.Compaction == nil || spec.Compaction.Kind != algebra.CompactSizeTiered || spec.Compaction.Fanout != 4 {
		t.Fatalf("compaction: %+v", spec.Compaction)
	}
	// The directive is an annotation: the physical plan underneath is the
	// same as without it.
	plain := compile(t, "orderby[t](Traces)")
	if len(spec.Steps) != len(plain.Steps) || len(spec.Segments) != len(plain.Segments) {
		t.Errorf("compaction changed the physical plan: %+v vs %+v", spec, plain)
	}
	if lev := compile(t, "leveled[8](cols(Traces))"); lev.Compaction.Kind != algebra.CompactLeveled || lev.Compaction.Fanout != 8 {
		t.Errorf("leveled: %+v", lev.Compaction)
	}
	if compile(t, "rows(Traces)").Compaction != nil {
		t.Error("plain layout grew a compaction spec")
	}
}

func TestStoredOrders(t *testing.T) {
	spec := compile(t, "orderby[t](Traces)")
	orders := spec.StoredOrders()
	if len(orders) != 1 || orders[0][0].Field != "t" {
		t.Errorf("orders: %+v", orders)
	}
	// The LAST reordering wins.
	spec2 := compile(t, "orderby[lat](orderby[t](Traces))")
	orders2 := spec2.StoredOrders()
	if len(orders2) != 1 || orders2[0][0].Field != "lat" {
		t.Errorf("orders2: %+v", orders2)
	}
	// groupby reports its fields as the clustering order.
	spec3 := compile(t, "groupby[id](orderby[t](Traces))")
	orders3 := spec3.StoredOrders()
	if len(orders3) != 1 || orders3[0][0].Field != "id" {
		t.Errorf("orders3: %+v", orders3)
	}
	// Grid reorders everything: no row order survives.
	spec4 := compile(t, "grid[lat,lon; 8,8](orderby[t](Traces))")
	if len(spec4.StoredOrders()) != 0 {
		t.Errorf("grid should clear stored orders")
	}
	// No ordering at all.
	spec5 := compile(t, "rows(Traces)")
	if len(spec5.StoredOrders()) != 0 {
		t.Errorf("rows(T) has no stored order")
	}
}

func TestCompilePreservesExprText(t *testing.T) {
	src := "zorder(grid[lat,lon; 64,64](project[lat,lon](Traces)))"
	spec := compile(t, src)
	if spec.Expr != src {
		t.Errorf("expr text: %q", spec.Expr)
	}
	// Re-compiling the persisted text yields the same plan shape.
	spec2 := compile(t, spec.Expr)
	if !reflect.DeepEqual(spec.Segments, spec2.Segments) || len(spec.Steps) != len(spec2.Steps) {
		t.Error("recompilation differs")
	}
}
