package algebra

import (
	"strings"
	"testing"

	"rodentstore/internal/value"
)

// canonical expressions: Parse(s).String() == s must hold for each.
var canonical = []string{
	"Traces",
	"rows(Traces)",
	"cols(Traces)",
	"project[lat,lon](Traces)",
	"project[lat,lon](orderby[t](Traces))",
	"colgroup[a,b; c; d,e,f](T)",
	"orderby[t,id desc](Traces)",
	"groupby[id](Traces)",
	"limit[100](Traces)",
	"fold[zip,addr; area](T)",
	"unfold(fold[zip; area](T))",
	"prejoin[cid](Orders, Customers)",
	"delta[lat,lon](Traces)",
	"rle[area](T)",
	"dict[city](T)",
	"bitpack[t](Traces)",
	"grid[lat,lon; 64,64](project[lat,lon](Traces))",
	"zorder(grid[lat,lon; 64,64](Traces))",
	"hilbert(grid[lat,lon; 32,16](Traces))",
	"rowmajor(grid[x; 8](T))",
	"transpose(T)",
	"chunk[1000](Traces)",
	"sizetiered[4](orderby[t](Traces))",
	"leveled[8](cols(Traces))",
	"delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](orderby[t](groupby[id](Traces))))))",
	`select[area = 617](T)`,
	`select[lat >= 42.3 and lat < 42.4 and id = "car-7"](Traces)`,
}

func TestParsePrintRoundtrip(t *testing.T) {
	for _, src := range canonical {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := e.String(); got != src {
			t.Errorf("roundtrip: %q -> %q", src, got)
		}
		// Idempotence: parsing the printed form prints identically.
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if e2.String() != e.String() {
			t.Errorf("reparse changed form: %q vs %q", e2.String(), e.String())
		}
	}
}

func TestParseWhitespaceInsensitive(t *testing.T) {
	a := MustParse("zorder( grid[ lat , lon ; 64 , 64 ]( Traces ) )")
	b := MustParse("zorder(grid[lat,lon; 64,64](Traces))")
	if a.String() != b.String() {
		t.Errorf("whitespace changed parse: %q vs %q", a.String(), b.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"rows()",
		"rows(T",
		"rows(T))",
		"rows(T, U)",
		"rows[x](T)",
		"project[](T)",
		"project[1bad](T)",
		"unknownop(T)",
		"grid[lat; 64, 64](T)",
		"grid[lat,lon](T)",
		"grid[lat,lon; 0,64](T)",
		"limit[-1](T)",
		"limit[xyz](T)",
		"chunk[0](T)",
		"fold[a](T)",
		"prejoin[](A, B)",
		"prejoin[k](A)",
		"select[](T)",
		"select[a ~ 1](T)",
		"select[a = ](T)",
		"select[a = 1 or b = 2](T)",
		"orderby[](T)",
		"orderby[a sideways](T)",
		"sizetiered[](T)",
		"sizetiered[1](T)",
		"sizetiered[abc](T)",
		"leveled[0](T)",
		"leveled[4](T, U)",
		"zorder(T) extra",
		`select[a = "unterminated](T)`,
	}
	for _, src := range bad {
		if e, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail, got %v", src, e)
		}
	}
}

func TestParsePredicate(t *testing.T) {
	p, err := ParsePredicate(`lat >= 42.3 and lon < -71.0 and id = "x" and n != 5 and ok = true`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Terms) != 5 {
		t.Fatalf("got %d terms", len(p.Terms))
	}
	if p.Terms[0].Op != OpGe || p.Terms[0].Value.Float() != 42.3 {
		t.Errorf("term 0: %+v", p.Terms[0])
	}
	if p.Terms[1].Value.Float() != -71.0 {
		t.Errorf("term 1 negative literal: %+v", p.Terms[1])
	}
	if p.Terms[2].Value.Str() != "x" {
		t.Errorf("term 2: %+v", p.Terms[2])
	}
	if p.Terms[3].Op != OpNe || p.Terms[3].Value.Int() != 5 {
		t.Errorf("term 3: %+v", p.Terms[3])
	}
	if p.Terms[4].Value.Bool() != true {
		t.Errorf("term 4: %+v", p.Terms[4])
	}
	// Empty predicate is True.
	p0, err := ParsePredicate("")
	if err != nil || !p0.IsTrue() {
		t.Errorf("empty predicate: %v %v", p0, err)
	}
}

func TestPredicateBounds(t *testing.T) {
	p, _ := ParsePredicate("lat >= 42.3 and lat < 42.4 and lon > -71.2")
	lo, hi, loOpen, hiOpen, found := p.Bounds("lat")
	if !found || lo.Float() != 42.3 || hi.Float() != 42.4 || loOpen || !hiOpen {
		t.Errorf("lat bounds: lo=%v hi=%v loOpen=%v hiOpen=%v found=%v", lo, hi, loOpen, hiOpen, found)
	}
	lo, hi, loOpen, _, found = p.Bounds("lon")
	if !found || lo.Float() != -71.2 || !hi.IsNull() || !loOpen {
		t.Errorf("lon bounds: lo=%v hi=%v loOpen=%v found=%v", lo, hi, loOpen, found)
	}
	if _, _, _, _, found := p.Bounds("other"); found {
		t.Error("unconstrained field reported found")
	}
	// Equality produces a degenerate closed interval.
	pe, _ := ParsePredicate("a = 5")
	lo, hi, loOpen, hiOpen, found = pe.Bounds("a")
	if !found || lo.Int() != 5 || hi.Int() != 5 || loOpen || hiOpen {
		t.Errorf("eq bounds: %v %v %v %v %v", lo, hi, loOpen, hiOpen, found)
	}
}

func TestPredicateAndFields(t *testing.T) {
	p := True.And("a", OpGt, value.NewInt(1)).And("b", OpLt, value.NewInt(2)).And("a", OpLe, value.NewInt(10))
	if len(p.Terms) != 3 {
		t.Fatalf("terms: %d", len(p.Terms))
	}
	f := p.Fields()
	if len(f) != 2 || f[0] != "a" || f[1] != "b" {
		t.Errorf("Fields: %v", f)
	}
	if True.IsTrue() != true || p.IsTrue() {
		t.Error("IsTrue wrong")
	}
}

func TestBaseOf(t *testing.T) {
	e := MustParse("zorder(grid[a,b; 4,4](project[a,b](T)))")
	name, err := BaseOf(e)
	if err != nil || name != "T" {
		t.Errorf("BaseOf: %q %v", name, err)
	}
	multi := MustParse("prejoin[k](A, B)")
	if _, err := BaseOf(multi); err == nil {
		t.Error("BaseOf should fail on multi-table expressions")
	}
}

func TestWalkOrder(t *testing.T) {
	e := MustParse("zorder(grid[a; 4](T))")
	var names []string
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Curve:
			names = append(names, "curve")
		case *Grid:
			names = append(names, "grid")
		case *Base:
			names = append(names, "base")
		}
	})
	if strings.Join(names, ",") != "curve,grid,base" {
		t.Errorf("walk order: %v", names)
	}
}
