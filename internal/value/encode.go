package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of values. Fixed-width kinds (Int, Float, Bool) encode
// without a tag into their natural widths; variable-width kinds carry a
// uvarint length prefix.

// AppendValue appends the encoding of v (which must be of kind k, or Null)
// to dst and returns the extended slice. Null is encoded as the kind's zero
// value; callers that must distinguish Null keep a null bitmap of their own.
func AppendValue(dst []byte, k Kind, v Value) []byte {
	switch k {
	case Int:
		var u uint64
		if !v.IsNull() {
			u = uint64(v.Int())
		}
		return binary.LittleEndian.AppendUint64(dst, u)
	case Float:
		var u uint64
		if !v.IsNull() {
			u = math.Float64bits(v.Float())
		}
		return binary.LittleEndian.AppendUint64(dst, u)
	case Bool:
		var b byte
		if !v.IsNull() && v.Bool() {
			b = 1
		}
		return append(dst, b)
	case Str:
		var s string
		if !v.IsNull() {
			s = v.Str()
		}
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case Bytes:
		var b []byte
		if !v.IsNull() {
			b = v.Bytes()
		}
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		return append(dst, b...)
	case List:
		var l []Value
		if !v.IsNull() {
			l = v.List()
		}
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		for _, c := range l {
			dst = append(dst, byte(c.Kind()))
			dst = AppendValue(dst, c.Kind(), c)
		}
		return dst
	case Null:
		// Null carries no payload; list children are tagged so the kind byte
		// alone identifies them, and top-level nulls use the row bitmap.
		return dst
	default:
		panic(fmt.Sprintf("value: cannot encode kind %s", k))
	}
}

// DecodeValue decodes one value of kind k from buf, returning the value and
// the number of bytes consumed.
func DecodeValue(buf []byte, k Kind) (Value, int, error) {
	switch k {
	case Int:
		if len(buf) < 8 {
			return Value{}, 0, fmt.Errorf("value: short buffer for int")
		}
		return NewInt(int64(binary.LittleEndian.Uint64(buf))), 8, nil
	case Float:
		if len(buf) < 8 {
			return Value{}, 0, fmt.Errorf("value: short buffer for float")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), 8, nil
	case Bool:
		if len(buf) < 1 {
			return Value{}, 0, fmt.Errorf("value: short buffer for bool")
		}
		return NewBool(buf[0] != 0), 1, nil
	case Str:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: short buffer for string")
		}
		return NewString(string(buf[sz : sz+int(n)])), sz + int(n), nil
	case Bytes:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: short buffer for bytes")
		}
		out := make([]byte, n)
		copy(out, buf[sz:sz+int(n)])
		return NewBytes(out), sz + int(n), nil
	case List:
		n, sz := binary.Uvarint(buf)
		// Every child takes at least its kind byte, so a count the rest of
		// buf cannot hold is refused before it sizes an allocation.
		if sz <= 0 || uint64(len(buf)-sz) < n {
			return Value{}, 0, fmt.Errorf("value: short buffer for list")
		}
		off := sz
		children := make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			if off >= len(buf) {
				return Value{}, 0, fmt.Errorf("value: short buffer for list child")
			}
			ck := Kind(buf[off])
			off++
			c, used, err := DecodeValue(buf[off:], ck)
			if err != nil {
				return Value{}, 0, err
			}
			off += used
			children = append(children, c)
		}
		return NewList(children...), off, nil
	case Null:
		return NullValue(), 0, nil
	default:
		return Value{}, 0, fmt.Errorf("value: cannot decode kind %s", k)
	}
}
