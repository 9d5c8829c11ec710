package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func newLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// frames syncs l and returns a copy of every intact frame before its
// logical end, as the frame walker yields them.
func frames(t *testing.T, l *Log) []Record {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	w := newWalker(l.f, l.Size())
	var out []Record
	for w.next() {
		r := w.rec
		r.Payload = append([]byte(nil), r.Payload...)
		out = append(out, r)
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	return out
}

// tail is one applied RecTail frame.
type tail struct {
	id      uint64
	payload string
}

// replay runs l.Replay and returns what it applied, in order.
func replay(t *testing.T, l *Log) []tail {
	t.Helper()
	var got []tail
	n, err := l.Replay(func(id uint64, payload []byte) error {
		got = append(got, tail{id, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Replay reports %d frames applied, applied %d", n, len(got))
	}
	return got
}

func TestAppendWalkRoundtrip(t *testing.T) {
	l, _ := newLog(t)
	recs := []Record{
		{Type: RecTail, TxnID: 1, Payload: []byte("tail seven")},
		{Type: RecPageImage, TxnID: 1, PageID: 8, Payload: []byte{}},
		{Type: RecCommit, TxnID: 1},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := frames(t, l)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Type != r.Type || g.TxnID != r.TxnID || g.PageID != r.PageID {
			t.Errorf("record %d: got %+v want %+v", i, g, r)
		}
		if string(g.Payload) != string(r.Payload) {
			t.Errorf("record %d payload: got %q want %q", i, g.Payload, r.Payload)
		}
	}
}

func TestWalkStopsAtTornTail(t *testing.T) {
	l, path := newLog(t)
	l.Append(Record{Type: RecTail, TxnID: 1, Payload: []byte("one")})
	l.Append(Record{Type: RecTail, TxnID: 2, Payload: []byte("two")})
	l.Sync()
	// Simulate a torn write: append garbage half-record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{200, 0, 0, 0, 1, 2})
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := frames(t, l2); len(got) != 2 {
		t.Fatalf("torn tail should be dropped: got %d records", len(got))
	}
}

func TestWalkStopsAtCorruptRecord(t *testing.T) {
	l, path := newLog(t)
	l.Append(Record{Type: RecTail, TxnID: 1, Payload: []byte("abc")})
	l.Append(Record{Type: RecTail, TxnID: 2, Payload: []byte("abcdef")})
	l.Sync()
	end := l.Size() // logical end: the file itself is preallocated longer
	raw, _ := os.ReadFile(path)
	raw[end-2] ^= 0xff // corrupt inside the second frame
	os.WriteFile(path, raw, 0o644)

	l2, _ := Open(path)
	defer l2.Close()
	if got := replay(t, l2); len(got) != 1 || got[0] != (tail{1, "abc"}) {
		t.Fatalf("a corrupt frame should end the walk: replayed %v", got)
	}
}

// TestReplayAppliesEveryTailInLogOrder: every intact tail frame is a
// commit, applied in log order whatever its id; frames of other types —
// the begin and commit frames of logs written when a commit was a group,
// the benchmark's page images — are skipped, and a tail with no commit
// frame after it applies too.
func TestReplayAppliesEveryTailInLogOrder(t *testing.T) {
	l, _ := newLog(t)
	l.Append(Record{Type: 1, TxnID: 5}) // a begin frame
	l.Append(Record{Type: RecTail, TxnID: 5, Payload: []byte("five")})
	l.Append(Record{Type: RecCommit, TxnID: 5})
	l.Append(Record{Type: RecTail, TxnID: 3, Payload: []byte("three")})
	l.Append(Record{Type: RecPageImage, TxnID: 4, PageID: 2, Payload: []byte("image")})
	l.Append(Record{Type: 1, TxnID: 7})
	l.Append(Record{Type: RecTail, TxnID: 7, Payload: []byte("seven")})
	l.Sync()
	want := []tail{{5, "five"}, {3, "three"}, {7, "seven"}}
	got := replay(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

// TestReplayAllocationsFlatInFrames: the walk reuses one body buffer and
// hands apply a view of it, so a log of many frames replays in the
// allocations of a log of a few.
func TestReplayAllocationsFlatInFrames(t *testing.T) {
	allocs := func(frames int) float64 {
		l, _ := newLog(t)
		payload := make([]byte, 300)
		for i := range frames {
			l.Append(Record{Type: RecTail, TxnID: uint64(i + 1), Payload: payload})
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if n, err := l.Replay(func(uint64, []byte) error { return nil }); err != nil || n != frames {
				t.Fatalf("replayed %d of %d frames: %v", n, frames, err)
			}
		})
	}
	if few, many := allocs(4), allocs(2000); many > few {
		t.Fatalf("Replay allocates %v times over 2000 frames, %v over 4", many, few)
	}
}

func TestTruncate(t *testing.T) {
	l, _ := newLog(t)
	l.Append(Record{Type: RecTail, TxnID: 1})
	l.Sync()
	if l.Size() == 0 {
		t.Fatal("log should be non-empty")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Error("size after truncate should be 0")
	}
	if got := frames(t, l); len(got) != 0 {
		t.Error("records survive truncate")
	}
}

func TestGroupCommitConcurrentSync(t *testing.T) {
	// Many committers append their records and call Sync concurrently. Every
	// record must be durable when its Sync returns, and the shared ticket
	// must never issue more fsyncs than Sync calls (it typically issues far
	// fewer: one leader's fsync covers every record appended before it).
	l, path := newLog(t)
	const writers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := uint64(w*rounds + i + 1)
				if err := l.Append(Record{Type: RecTail, TxnID: id}); err != nil {
					t.Error(err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	syncs := uint64(writers * rounds)
	if fs := l.Fsyncs(); fs == 0 || fs > syncs {
		t.Errorf("fsyncs = %d, want in [1, %d]", fs, syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := frames(t, l2)
	if len(got) != writers*rounds {
		t.Fatalf("reopen found %d records, want %d", len(got), writers*rounds)
	}
	seen := make(map[uint64]int)
	for _, r := range got {
		seen[r.TxnID]++
	}
	for id := uint64(1); id <= syncs; id++ {
		if seen[id] != 1 {
			t.Fatalf("txn %d: %d records survived, want 1", id, seen[id])
		}
	}
}

func TestSyncAbsorbsConcurrentAppends(t *testing.T) {
	// A Sync only guarantees records appended before it was called; records
	// landing during the fsync stay buffered for the next round and must not
	// be lost or reordered.
	l, _ := newLog(t)
	l.Append(Record{Type: RecTail, TxnID: 1})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: RecTail, TxnID: 2})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := frames(t, l); len(got) != 2 || got[0].TxnID != 1 || got[1].TxnID != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.wal")
	l, _ := Open(path)
	l.Append(Record{Type: RecTail, TxnID: 9, Payload: []byte("nine")})
	l.Append(Record{Type: RecTail, TxnID: 10, Payload: []byte("ten")})
	l.Sync()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := frames(t, l2); len(got) != 2 || got[0].TxnID != 9 {
		t.Errorf("reopen lost records: %+v", got)
	}
	// Appending after reopen must not clobber existing records.
	l2.Append(Record{Type: RecTail, TxnID: 11})
	if got := frames(t, l2); len(got) != 3 {
		t.Errorf("append after reopen: got %d records", len(got))
	}
}
