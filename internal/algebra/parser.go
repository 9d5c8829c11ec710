package algebra

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"rodentstore/internal/value"
)

// Parse parses the textual form of a storage-algebra expression.
//
// Grammar (see package doc for examples):
//
//	expr    := IDENT                              base table
//	         | op '(' expr {',' expr} ')'         zorder(e), transpose(e), ...
//	         | op '[' args ']' '(' expr... ')'    project[a,b](e), grid[x,y; 8,8](e)
//	args    := sections separated by ';'; each section is a comma list of
//	           identifiers, numbers, order keys (f desc) or a predicate
//	           (select only: f = 1 and g < 2.5)
func Parse(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.text)
	}
	return e, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) [ ] , ;
	tokOp    // = != < <= > >=
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(' || c == ')' || c == '[' || c == ']' || c == ',' || c == ';':
		l.pos++
		return token{tokPunct, string(c), start}, nil
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}, nil
		}
		return token{}, fmt.Errorf("algebra: pos %d: unexpected '!'", start)
	case c == '<' || c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokOp, l.src[start:l.pos], start}, nil
		}
		return token{tokOp, string(c), start}, nil
	case c == '"':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("algebra: pos %d: unterminated string", start)
		}
		l.pos++
		return token{tokString, sb.String(), start}, nil
	case c == '-' || c == '+' || unicode.IsDigit(rune(c)):
		l.pos++
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if unicode.IsDigit(rune(d)) || d == '.' || d == 'e' || d == 'E' ||
				((d == '-' || d == '+') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')) {
				l.pos++
				continue
			}
			break
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case unicode.IsLetter(rune(c)) || c == '_':
		l.pos++
		for l.pos < len(l.src) {
			d := rune(l.src[l.pos])
			if unicode.IsLetter(d) || unicode.IsDigit(d) || d == '_' {
				l.pos++
				continue
			}
			break
		}
		return token{tokIdent, l.src[start:l.pos], start}, nil
	default:
		return token{}, fmt.Errorf("algebra: pos %d: unexpected character %q", start, c)
	}
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) next() error {
	t, err := p.lex.lex()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("algebra: pos %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.text)
	}
	return p.next()
}

// parseExpr parses one expression.
func (p *parser) parseExpr() (Expr, error) {
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected operator or table name, found %q", p.tok.text)
	}
	name := p.tok.text
	if err := p.next(); err != nil {
		return nil, err
	}
	// Bare identifier = base table.
	if p.tok.kind != tokPunct || (p.tok.text != "(" && p.tok.text != "[") {
		return &Base{Name: name}, nil
	}

	// Optional [...] argument section, raw-tokenized per operator below.
	var args string
	if p.tok.text == "[" {
		// Capture the raw bracket content; operators parse it themselves.
		depth := 1
		start := p.lex.pos
		for depth > 0 {
			if p.lex.pos >= len(p.lex.src) {
				return nil, p.errf("unterminated '['")
			}
			switch p.lex.src[p.lex.pos] {
			case '[':
				depth++
			case ']':
				depth--
			}
			p.lex.pos++
		}
		args = p.lex.src[start : p.lex.pos-1]
		if err := p.next(); err != nil {
			return nil, err
		}
	}

	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var inputs []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, e)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return buildOp(name, args, inputs)
}

// buildOp constructs the AST node for an operator invocation.
func buildOp(name, args string, inputs []Expr) (Expr, error) {
	one := func() (Expr, error) {
		if len(inputs) != 1 {
			return nil, fmt.Errorf("algebra: %s takes exactly one input, got %d", name, len(inputs))
		}
		return inputs[0], nil
	}
	noArgs := func() error {
		if strings.TrimSpace(args) != "" {
			return fmt.Errorf("algebra: %s takes no [...] arguments", name)
		}
		return nil
	}
	switch name {
	case "rows":
		in, err := one()
		if err == nil {
			err = noArgs()
		}
		if err != nil {
			return nil, err
		}
		return &Rows{Input: in}, nil
	case "cols":
		in, err := one()
		if err == nil {
			err = noArgs()
		}
		if err != nil {
			return nil, err
		}
		return &Cols{Input: in}, nil
	case "unfold":
		in, err := one()
		if err == nil {
			err = noArgs()
		}
		if err != nil {
			return nil, err
		}
		return &Unfold{Input: in}, nil
	case "transpose":
		in, err := one()
		if err == nil {
			err = noArgs()
		}
		if err != nil {
			return nil, err
		}
		return &Transpose{Input: in}, nil
	case "zorder", "hilbert", "rowmajor":
		in, err := one()
		if err == nil {
			err = noArgs()
		}
		if err != nil {
			return nil, err
		}
		return &Curve{Kind: CurveKind(name), Input: in}, nil
	case "project":
		in, err := one()
		if err != nil {
			return nil, err
		}
		fields, err := identList(args)
		if err != nil {
			return nil, fmt.Errorf("algebra: project: %w", err)
		}
		return &Project{Fields: fields, Input: in}, nil
	case "colgroup":
		in, err := one()
		if err != nil {
			return nil, err
		}
		var groups [][]string
		for _, sect := range strings.Split(args, ";") {
			g, err := identList(sect)
			if err != nil {
				return nil, fmt.Errorf("algebra: colgroup: %w", err)
			}
			groups = append(groups, g)
		}
		return &ColGroups{Groups: groups, Input: in}, nil
	case "select":
		in, err := one()
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(args) == "" {
			return nil, fmt.Errorf("algebra: select needs a condition")
		}
		pred, err := ParsePredicate(args)
		if err != nil {
			return nil, err
		}
		return &Select{Pred: pred, Input: in}, nil
	case "orderby":
		in, err := one()
		if err != nil {
			return nil, err
		}
		keys, err := orderKeys(args)
		if err != nil {
			return nil, err
		}
		return &OrderBy{Keys: keys, Input: in}, nil
	case "groupby":
		in, err := one()
		if err != nil {
			return nil, err
		}
		fields, err := identList(args)
		if err != nil {
			return nil, fmt.Errorf("algebra: groupby: %w", err)
		}
		return &GroupBy{Fields: fields, Input: in}, nil
	case "limit":
		in, err := one()
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(strings.TrimSpace(args))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("algebra: limit: bad count %q", args)
		}
		return &Limit{N: n, Input: in}, nil
	case "chunk":
		in, err := one()
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(strings.TrimSpace(args))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("algebra: chunk: bad size %q", args)
		}
		return &Chunk{N: n, Input: in}, nil
	case "sizetiered", "leveled":
		in, err := one()
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(strings.TrimSpace(args))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("algebra: %s: bad fanout %q (need an integer >= 2)", name, args)
		}
		return &Compact{Kind: CompactKind(name), Fanout: n, Input: in}, nil
	case "fold":
		in, err := one()
		if err != nil {
			return nil, err
		}
		sects := strings.Split(args, ";")
		if len(sects) != 2 {
			return nil, fmt.Errorf("algebra: fold takes [values; by], got %q", args)
		}
		vals, err := identList(sects[0])
		if err != nil {
			return nil, fmt.Errorf("algebra: fold values: %w", err)
		}
		by, err := identList(sects[1])
		if err != nil {
			return nil, fmt.Errorf("algebra: fold by: %w", err)
		}
		return &Fold{Values: vals, By: by, Input: in}, nil
	case "prejoin":
		if len(inputs) != 2 {
			return nil, fmt.Errorf("algebra: prejoin takes two inputs, got %d", len(inputs))
		}
		attr := strings.TrimSpace(args)
		if attr == "" {
			return nil, fmt.Errorf("algebra: prejoin needs a join attribute")
		}
		return &Prejoin{JoinAttr: attr, Left: inputs[0], Right: inputs[1]}, nil
	case "delta", "rle", "dict", "bitpack":
		in, err := one()
		if err != nil {
			return nil, err
		}
		fields, err := identList(args)
		if err != nil {
			return nil, fmt.Errorf("algebra: %s: %w", name, err)
		}
		return &Compress{Codec: name, Fields: fields, Input: in}, nil
	case "grid":
		in, err := one()
		if err != nil {
			return nil, err
		}
		sects := strings.Split(args, ";")
		if len(sects) != 2 {
			return nil, fmt.Errorf("algebra: grid takes [fields; cells], got %q", args)
		}
		fields, err := identList(sects[0])
		if err != nil {
			return nil, fmt.Errorf("algebra: grid fields: %w", err)
		}
		var cells []int
		for _, c := range strings.Split(sects[1], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("algebra: grid: bad cell count %q", c)
			}
			cells = append(cells, n)
		}
		if len(cells) != len(fields) {
			return nil, fmt.Errorf("algebra: grid: %d fields but %d cell counts", len(fields), len(cells))
		}
		dims := make([]GridDim, len(fields))
		for i := range fields {
			dims[i] = GridDim{Field: fields[i], Cells: cells[i]}
		}
		return &Grid{Dims: dims, Input: in}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %q", name)
	}
}

func identList(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		id := strings.TrimSpace(part)
		if id == "" {
			return nil, fmt.Errorf("empty identifier in %q", s)
		}
		for i, r := range id {
			if !(unicode.IsLetter(r) || r == '_' || (i > 0 && unicode.IsDigit(r))) {
				return nil, fmt.Errorf("bad identifier %q", id)
			}
		}
		out = append(out, id)
	}
	return out, nil
}

func orderKeys(s string) ([]OrderKey, error) {
	var out []OrderKey
	for _, part := range strings.Split(s, ",") {
		words := strings.Fields(part)
		switch len(words) {
		case 1:
			out = append(out, OrderKey{Field: words[0]})
		case 2:
			switch strings.ToLower(words[1]) {
			case "asc":
				out = append(out, OrderKey{Field: words[0]})
			case "desc":
				out = append(out, OrderKey{Field: words[0], Desc: true})
			default:
				return nil, fmt.Errorf("algebra: orderby: bad direction %q", words[1])
			}
		default:
			return nil, fmt.Errorf("algebra: orderby: bad key %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("algebra: orderby needs at least one key")
	}
	return out, nil
}

// ParseOrderBy parses an order list like "t desc, id" into order keys.
func ParseOrderBy(src string) ([]OrderKey, error) {
	return orderKeys(src)
}

// ParsePredicate parses a conjunction like `lat >= 42.3 and id = "car-7"`.
func ParsePredicate(src string) (Predicate, error) {
	lex := newLexer(src)
	var pred Predicate
	for {
		tok, err := lex.lex()
		if err != nil {
			return Predicate{}, err
		}
		if tok.kind == tokEOF {
			if len(pred.Terms) == 0 && strings.TrimSpace(src) != "" {
				return Predicate{}, fmt.Errorf("algebra: bad predicate %q", src)
			}
			return pred, nil
		}
		if tok.kind != tokIdent {
			return Predicate{}, fmt.Errorf("algebra: predicate: expected field name, found %q", tok.text)
		}
		field := tok.text
		opTok, err := lex.lex()
		if err != nil {
			return Predicate{}, err
		}
		if opTok.kind != tokOp {
			return Predicate{}, fmt.Errorf("algebra: predicate: expected operator after %q, found %q", field, opTok.text)
		}
		valTok, err := lex.lex()
		if err != nil {
			return Predicate{}, err
		}
		v, err := literal(valTok)
		if err != nil {
			return Predicate{}, err
		}
		pred.Terms = append(pred.Terms, Comparison{Field: field, Op: CmpOp(opTok.text), Value: v})

		sep, err := lex.lex()
		if err != nil {
			return Predicate{}, err
		}
		if sep.kind == tokEOF {
			return pred, nil
		}
		if sep.kind != tokIdent || strings.ToLower(sep.text) != "and" {
			return Predicate{}, fmt.Errorf("algebra: predicate: expected 'and', found %q", sep.text)
		}
	}
}

func literal(t token) (value.Value, error) {
	switch t.kind {
	case tokNumber:
		if !strings.ContainsAny(t.text, ".eE") {
			i, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return value.NewInt(i), nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("algebra: bad number %q", t.text)
		}
		return value.NewFloat(f), nil
	case tokString:
		return value.NewString(t.text), nil
	case tokIdent:
		switch t.text {
		case "true":
			return value.NewBool(true), nil
		case "false":
			return value.NewBool(false), nil
		case "null":
			return value.NullValue(), nil
		}
		return value.Value{}, fmt.Errorf("algebra: bad literal %q (strings need quotes)", t.text)
	default:
		return value.Value{}, fmt.Errorf("algebra: bad literal %q", t.text)
	}
}
