package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"rodentstore/internal/vfs"
)

// refWalk is the torn-tail rule over log bytes held in memory: frames from
// the start while each one fits and matches its checksum. It returns the
// (id, payload) of every RecTail frame among them and where they end.
func refWalk(data []byte) (tails []tail, end int64) {
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < 17 || n > len(data)-off-8 {
			break
		}
		body := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		if RecordType(body[0]) == RecTail {
			tails = append(tails, tail{binary.LittleEndian.Uint64(body[1:]), string(body[17:])})
		}
		off += 8 + n
	}
	return tails, int64(off)
}

// refVerify is Verify's classification over log bytes held in memory: the
// non-zero bytes past the logical end, and whether a well-formed frame
// starts at some offset within the first probeSpan bytes past it.
func refVerify(data []byte, end int64) (tailBytes int, corrupt bool) {
	tail := data[end:]
	tailBytes = len(tail) - bytes.Count(tail, []byte{0})
	for cand := 1; cand+8 <= min(len(tail), probeSpan); cand++ {
		if _, n := refWalk(tail[cand:]); n > 0 {
			return tailBytes, true
		}
	}
	return tailBytes, false
}

// frameBytes encodes records the way Append frames them.
func frameBytes(recs ...Record) []byte {
	var out []byte
	for _, r := range recs {
		body := []byte{byte(r.Type)}
		body = binary.LittleEndian.AppendUint64(body, r.TxnID)
		body = binary.LittleEndian.AppendUint64(body, uint64(r.PageID))
		body = append(body, r.Payload...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
		out = append(out, body...)
	}
	return out
}

// FuzzWALReplay opens arbitrary bytes as a log on the fault file system. It
// must not panic; Open's logical end, Verify's and the end of the in-memory
// reference walk must agree, and so must Verify's report of what lies past
// it (refVerify); and Replay must apply exactly the RecTail frames before
// that end, in order.
func FuzzWALReplay(f *testing.F) {
	group := frameBytes(
		Record{Type: 1, TxnID: 1},
		Record{Type: RecTail, TxnID: 1, Payload: []byte("tail one")},
		Record{Type: RecCommit, TxnID: 1},
	)
	tails := frameBytes(
		Record{Type: RecTail, TxnID: 2, Payload: []byte("two")},
		Record{Type: RecTail, TxnID: 3, Payload: bytes.Repeat([]byte{7}, 300)},
	)
	f.Add([]byte{})
	f.Add(group)
	f.Add(tails)
	f.Add(append(append([]byte(nil), tails...), group[:20]...))            // torn after two frames
	f.Add(append(append([]byte(nil), group[:40]...), make([]byte, 64)...)) // tail frame cut, then zeros
	flipped := append(append([]byte(nil), tails...), group...)
	flipped[12] ^= 1 // mid-log corruption: intact frames follow the bad one
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, end := refWalk(data)
		l := openImage(t, data)
		if l.Size() != end {
			t.Fatalf("Open's logical end %d, reference walk's %d", l.Size(), end)
		}
		checkVerify(t, l, data, end)
		got := replay(t, l)
		if len(got) != len(want) {
			t.Fatalf("replayed %d tail frames, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tail %d: replayed %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// openImage opens data as a log on the fault file system, refusing
// preallocation (the log works without it) so that the file holds data and
// no more, not 4 MiB of zeros per input.
func openImage(t *testing.T, data []byte) *Log {
	t.Helper()
	fs := vfs.NewFaultFromImages(1, map[string]vfs.Image{"f.wal": {Data: data, Size: int64(len(data))}})
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpPreallocate {
			return vfs.Fail
		}
		return vfs.OK
	}
	l, err := OpenAt(fs, "f.wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// checkVerify holds Verify's report of the log l opened over data, whose
// logical end is end, to refVerify.
func checkVerify(t *testing.T, l *Log, data []byte, end int64) {
	t.Helper()
	rep, err := l.Verify() // mid-log corruption is an error, and still a report
	if rep.LogicalEnd != end {
		t.Fatalf("Verify's logical end %d, reference walk's %d", rep.LogicalEnd, end)
	}
	tailBytes, corrupt := refVerify(data, end)
	if rep.TailBytes != tailBytes || (err != nil) != corrupt {
		t.Fatalf("Verify: %d tail bytes, error %v; reference: %d tail bytes, corrupt %v", rep.TailBytes, err, tailBytes, corrupt)
	}
}

// TestVerifyAcrossChunks puts a torn frame and then a well-formed one past
// the logical end at offsets around Verify's chunk boundaries and the end
// of its probe span: a frame whose header or body straddles a chunk is
// found, one starting beyond the span is not, and zeros read as zeros.
func TestVerifyAcrossChunks(t *testing.T) {
	head := frameBytes(Record{Type: RecTail, TxnID: 1, Payload: []byte("head")})
	intact := frameBytes(Record{Type: RecTail, TxnID: 2, Payload: bytes.Repeat([]byte{9}, 3*verifyChunk/2)})
	torn := append([]byte(nil), head...)
	torn[len(torn)-1] ^= 0xff
	for _, at := range []int{
		1, 100, verifyChunk - 9, verifyChunk - 5, verifyChunk - 1, verifyChunk, verifyChunk + 3,
		3*verifyChunk - 4, probeSpan - 9, probeSpan - 8, probeSpan - 7,
	} {
		for _, withFrame := range []bool{false, true} {
			data := append([]byte(nil), head...)
			data = append(data, torn...)
			data = append(data, make([]byte, at+len(intact)+verifyChunk)...)
			if withFrame {
				copy(data[len(head)+at:], intact)
			}
			l := openImage(t, data)
			checkVerify(t, l, data, int64(len(head)))
			if _, err := l.Verify(); (err != nil) != (withFrame && at+8 <= probeSpan) {
				t.Errorf("frame %v at +%d: Verify error %v", withFrame, at, err)
			}
		}
	}
}
