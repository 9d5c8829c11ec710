package segment

import (
	"encoding/binary"
	"errors"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// TestForgedDictHeaderIsCorruptExtent forges the dictionary size of a
// dict-coded chunk to 1<<62 before the extent is written (so every page
// checksum is good) and requires both read paths to report a typed
// ErrCorruptExtent. Sizing an allocation from that header used to panic
// with "makeslice: len out of range".
func TestForgedDictHeaderIsCorruptExtent(t *testing.T) {
	f := newFile(t)
	spec := traceSpec()
	spec.Codecs = []string{"", "", "dict"}
	w, err := NewWriter(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRows(w, NoCell, traceRows(100)); err != nil {
		t.Fatal(err)
	}
	// Walk the block framing to the id column's chunk: body length, cell,
	// row count, then a length-prefixed chunk per column.
	buf := w.Buf()
	off := 4 + 8
	_, sz := binary.Uvarint(buf[off:])
	off += sz
	for c := 0; c < 2; c++ {
		off += 4 + int(binary.LittleEndian.Uint32(buf[off:]))
	}
	chunk := buf[off+4 : off+4+int(binary.LittleEndian.Uint32(buf[off:]))]
	_, sz = binary.Uvarint(chunk) // row count, then the dictionary size
	forged := binary.AppendUvarint(nil, 1<<62)
	if len(chunk) < sz+len(forged) {
		t.Fatalf("chunk of %d bytes is too short to forge", len(chunk))
	}
	copy(chunk[sz:], forged)
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f, meta, spec)
	if err != nil {
		t.Fatal(err)
	}
	var ce *ErrCorruptExtent
	if _, err := r.ReadBlockBoxed(0, nil); !errors.As(err, &ce) {
		t.Fatalf("boxed read: %v, want ErrCorruptExtent", err)
	}
	batch := vec.NewBatch(value.MustSchema(spec.Fields...))
	if err := r.ReadBlockVec(0, nil, batch); !errors.As(err, &ce) {
		t.Fatalf("vector read: %v, want ErrCorruptExtent", err)
	}
}
