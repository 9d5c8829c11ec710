// Package value implements the RodentStore data model (paper §3.2): typed
// scalar values, records, schemas, and the nested lists manipulated by the
// storage algebra. A database is a set of tables; each table holds records
// of n elements; elements carry one of the algebra's types
//
//	τ := int | float | string | ... | l:τ | [τ1, ..., τn]
//
// Scalars are represented by Value, a small tagged union that avoids
// interface boxing on hot paths. Nested lists ([τ1..τn]) are represented by
// the List kind, whose children are themselves Values.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the algebra's types.
type Kind uint8

const (
	// Null is the absence of a value. It sorts before everything.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
	// Str is a variable-length UTF-8 string.
	Str
	// Bytes is a variable-length byte string.
	Bytes
	// Bool is a boolean.
	Bool
	// List is a nesting [τ1, ..., τn]: an ordered list of child values.
	List
)

// String returns the type name as used by the algebra grammar.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Bytes:
		return "bytes"
	case Bool:
		return "bool"
	case List:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindFromString parses a type name. It is the inverse of Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "null":
		return Null, nil
	case "int":
		return Int, nil
	case "float":
		return Float, nil
	case "string":
		return Str, nil
	case "bytes":
		return Bytes, nil
	case "bool":
		return Bool, nil
	case "list":
		return List, nil
	}
	return Null, fmt.Errorf("value: unknown type %q", s)
}

// Value is a tagged union holding one scalar or one nesting.
// The zero Value is Null.
type Value struct {
	kind Kind
	i    int64   // Int, Bool (0/1)
	f    float64 // Float
	s    string  // Str
	b    []byte  // Bytes
	l    []Value // List
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{kind: Float, f: v} }

// NewString returns a Str value.
func NewString(v string) Value { return Value{kind: Str, s: v} }

// NewBytes returns a Bytes value. The slice is retained, not copied.
func NewBytes(v []byte) Value { return Value{kind: Bytes, b: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: Bool, i: i}
}

// NewList returns a List value wrapping children. The slice is retained.
func NewList(children ...Value) Value { return Value{kind: List, l: children} }

// NullValue returns the Null value.
func NullValue() Value { return Value{} }

// Kind returns the value's type tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics if the value is not an Int or Bool.
func (v Value) Int() int64 {
	if v.kind != Int && v.kind != Bool {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the float payload; Int values are widened. Panics otherwise.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	}
	panic(fmt.Sprintf("value: Float() on %s", v.kind))
}

// Str returns the string payload. Panics if the value is not a Str.
func (v Value) Str() string {
	if v.kind != Str {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// Bytes returns the byte payload. Panics if the value is not Bytes.
func (v Value) Bytes() []byte {
	if v.kind != Bytes {
		panic(fmt.Sprintf("value: Bytes() on %s", v.kind))
	}
	return v.b
}

// Bool returns the boolean payload. Panics if the value is not a Bool.
func (v Value) Bool() bool {
	if v.kind != Bool {
		panic(fmt.Sprintf("value: Bool() on %s", v.kind))
	}
	return v.i != 0
}

// List returns the child values. Panics if the value is not a List.
func (v Value) List() []Value {
	if v.kind != List {
		panic(fmt.Sprintf("value: List() on %s", v.kind))
	}
	return v.l
}

// Len returns the number of children of a List, the byte length of a
// Str/Bytes, and 1 for scalars (0 for Null). This backs the algebra's
// count() helper.
func (v Value) Len() int {
	switch v.kind {
	case List:
		return len(v.l)
	case Str:
		return len(v.s)
	case Bytes:
		return len(v.b)
	case Null:
		return 0
	default:
		return 1
	}
}

// Compare orders two values. Null < Bool < Int/Float < Str < Bytes < List;
// Int and Float compare numerically with each other. Lists compare
// lexicographically. The result is -1, 0 or +1.
func Compare(a, b Value) int {
	ra, rb := rank(a.kind), rank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Null:
		return 0
	case Bool:
		return cmpInt(a.i, b.i)
	case Int:
		if b.kind == Float {
			return cmpFloat(float64(a.i), b.f)
		}
		return cmpInt(a.i, b.i)
	case Float:
		if b.kind == Int {
			return cmpFloat(a.f, float64(b.i))
		}
		return cmpFloat(a.f, b.f)
	case Str:
		return strings.Compare(a.s, b.s)
	case Bytes:
		return strings.Compare(string(a.b), string(b.b))
	case List:
		n := len(a.l)
		if len(b.l) < n {
			n = len(b.l)
		}
		for i := 0; i < n; i++ {
			if c := Compare(a.l[i], b.l[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(a.l)), int64(len(b.l)))
	}
	return 0
}

// rank groups Int and Float into the same comparison class.
func rank(k Kind) int {
	switch k {
	case Null:
		return 0
	case Bool:
		return 1
	case Int, Float:
		return 2
	case Str:
		return 3
	case Bytes:
		return 4
	case List:
		return 5
	}
	return 6
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int { return CompareFloats(a, b) }

// CompareFloats is the float ordering Compare uses: NaNs sort before
// everything (stable, arbitrary choice), equal NaNs compare equal. It is
// exported so vectorized comparison loops (algebra.CompilePred) share the
// one definition instead of a hand-synchronized copy.
func CompareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

// Equal reports deep equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash consistent with Equal (used by hash-based fold
// and group-by rendering).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	v.hashInto(h)
	return h.Sum64()
}

type hasher interface {
	Write(p []byte) (int, error)
}

func (v Value) hashInto(h hasher) {
	var tag [1]byte
	switch v.kind {
	case Null:
		tag[0] = 0
		h.Write(tag[:])
	case Bool:
		tag[0] = 1
		h.Write(tag[:])
		writeUint64(h, uint64(v.i))
	case Int:
		tag[0] = 2
		h.Write(tag[:])
		writeUint64(h, uint64(v.i))
	case Float:
		// Hash integral floats identically to ints, and every NaN alike, so
		// Equal ⇒ same hash.
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			tag[0] = 2
			h.Write(tag[:])
			writeUint64(h, uint64(int64(v.f)))
		} else {
			bits := math.Float64bits(v.f)
			if math.IsNaN(v.f) {
				bits = math.Float64bits(math.NaN())
			}
			tag[0] = 3
			h.Write(tag[:])
			writeUint64(h, bits)
		}
	case Str:
		tag[0] = 4
		h.Write(tag[:])
		h.Write([]byte(v.s))
	case Bytes:
		tag[0] = 5
		h.Write(tag[:])
		h.Write(v.b)
	case List:
		tag[0] = 6
		h.Write(tag[:])
		for _, c := range v.l {
			c.hashInto(h)
		}
	}
}

func writeUint64(h hasher, u uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

// String renders the value in the algebra's literal syntax.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "null"
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Str:
		return strconv.Quote(v.s)
	case Bytes:
		return fmt.Sprintf("0x%x", v.b)
	case List:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, c := range v.l {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
		sb.WriteByte(']')
		return sb.String()
	}
	return "?"
}

// Row is one record: a flat list of field values in schema order.
type Row []Value

// Clone returns a deep-enough copy of the row (scalar payloads are immutable;
// only the slice spine is copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Kind
}

// Schema is an ordered list of named, typed fields.
type Schema struct {
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema, validating that names are unique and non-empty.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("value: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("value: duplicate field %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema for static schemas; it panics on error.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Arity returns the number of fields.
func (s *Schema) Arity() int { return len(s.Fields) }

// Names returns the field names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// Project returns a new schema with the named fields, plus the index of each
// in the source schema.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	fields := make([]Field, 0, len(names))
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, nil, fmt.Errorf("value: no field %q in schema (%s)", n, strings.Join(s.Names(), ", "))
		}
		fields = append(fields, s.Fields[i])
		idx = append(idx, i)
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	return out, idx, nil
}

// String renders the schema as "name:type, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.Name + ":" + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks that the row conforms to the schema (arity and types;
// Null is accepted for any type, and Int is accepted where Float is declared).
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Fields) {
		return fmt.Errorf("value: row arity %d != schema arity %d", len(r), len(s.Fields))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := s.Fields[i].Type
		if v.kind == want || (want == Float && v.kind == Int) {
			continue
		}
		return fmt.Errorf("value: field %q: got %s, want %s", s.Fields[i].Name, v.kind, want)
	}
	return nil
}

// SortRows sorts rows in place by the given key columns (ascending per key
// unless desc[i] is true). The sort is stable so secondary groupings survive.
func SortRows(rows []Row, keys []int, desc []bool) {
	sort.SliceStable(rows, func(a, b int) bool {
		for k, col := range keys {
			c := Compare(rows[a][col], rows[b][col])
			if c == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}
