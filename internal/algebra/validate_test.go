package algebra

import (
	"testing"

	"rodentstore/internal/value"
)

func tracesSchema() map[string]*value.Schema {
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
			value.Field{Name: "addr", Type: value.Str},
		),
	}
}

func TestInferValid(t *testing.T) {
	schemas := tracesSchema()
	cases := []struct {
		src  string
		want string
	}{
		{"Traces", "t:int, lat:float, lon:float, id:string"},
		{"rows(Traces)", "t:int, lat:float, lon:float, id:string"},
		{"cols(Traces)", "t:int, lat:float, lon:float, id:string"},
		{"project[lat,lon](Traces)", "lat:float, lon:float"},
		{"project[lon,lat](Traces)", "lon:float, lat:float"},
		{"colgroup[t; lat,lon; id](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"orderby[t](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"select[lat > 42.0](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"fold[zip,addr; area](Areas)", "area:int, folded_zip_addr:list"},
		{"unfold(fold[zip; area](Areas))", "area:int, zip:int"},
		{"unfold(fold[zip,addr; area](Areas))", "area:int, zip:int, addr:string"},
		{"prejoin[area](Areas, Areas)", "area:int, zip:int, addr:string, r_zip:int, r_addr:string"},
		{"delta[lat,lon](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"bitpack[t](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"grid[lat,lon; 64,64](Traces)", "t:int, lat:float, lon:float, id:string"},
		{"zorder(grid[lat,lon; 8,8](Traces))", "t:int, lat:float, lon:float, id:string"},
		{"limit[10](chunk[5](Traces))", "t:int, lat:float, lon:float, id:string"},
		{"sizetiered[4](orderby[t](Traces))", "t:int, lat:float, lon:float, id:string"},
		{"leveled[8](project[lat,lon](Traces))", "lat:float, lon:float"},
		{"delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces))))))", "lat:float, lon:float"},
	}
	for _, c := range cases {
		s, err := Infer(mustParse(c.src), schemas)
		if err != nil {
			t.Errorf("Infer(%q): %v", c.src, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("Infer(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestInferErrors(t *testing.T) {
	schemas := tracesSchema()
	bad := []string{
		"Nope",                               // unknown table
		"project[bogus](Traces)",             // unknown field
		"project[lat](project[lon](Traces))", // lat projected away
		"colgroup[lat; lat](Traces)",         // duplicate field
		"orderby[bogus](Traces)",             // unknown orderby field
		"groupby[bogus](Traces)",             // unknown groupby field
		"select[bogus = 1](Traces)",          // unknown predicate field
		"select[id > 5](Traces)",             // type mismatch str vs int
		"fold[bogus; area](Areas)",           // unknown fold value
		"fold[zip; bogus](Areas)",            // unknown fold key
		"fold[area; area](Areas)",            // field on both sides
		"unfold(Traces)",                     // unfold of unfolded input
		"prejoin[bogus](Areas, Areas)",       // missing join attribute
		"delta[id](Traces)",                  // delta on string
		"bitpack[lat](Traces)",               // bitpack on float
		"grid[id; 8](Traces)",                // grid on string
		"grid[bogus; 8](Traces)",             // grid on unknown field
		"zorder(Traces)",                     // curve without grid
		"zorder(project[lat](Traces))",       // curve without grid below
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q) unexpectedly failed: %v", src, err)
		}
		if _, err := Infer(e, schemas); err == nil {
			t.Errorf("Infer(%q) should fail", src)
		}
	}
	// The parser rejects malformed compaction directives, but a hand-built
	// node with a bad kind or fanout must not sneak past validation either.
	for _, n := range []Expr{
		&Compact{Kind: "mystery", Fanout: 4, Input: &Base{Name: "Traces"}},
		&Compact{Kind: CompactLeveled, Fanout: 1, Input: &Base{Name: "Traces"}},
	} {
		if _, err := Infer(n, schemas); err == nil {
			t.Errorf("Infer(%s) should fail", n)
		}
	}
}

func TestInferCaseStudyLayouts(t *testing.T) {
	// The paper's five case-study layouts must all validate (§6).
	schemas := tracesSchema()
	layouts := []string{
		"rows(Traces)",
		"project[lat,lon](orderby[t](groupby[id](Traces)))",
		"grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces))))",
		"zorder(grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces)))))",
		"delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces))))))",
	}
	for _, l := range layouts {
		if _, err := Infer(mustParse(l), schemas); err != nil {
			t.Errorf("case-study layout %q: %v", l, err)
		}
	}
}
