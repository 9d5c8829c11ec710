package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rodentstore/internal/pager"
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

func TestAppendScanRoundtrip(t *testing.T) {
	l, _ := newLog(t)
	recs := []Record{
		{Type: RecBegin, TxnID: 1},
		{Type: RecPageImage, TxnID: 1, PageID: 7, Payload: []byte("page seven")},
		{Type: RecPageImage, TxnID: 1, PageID: 8, Payload: []byte{}},
		{Type: RecCommit, TxnID: 1},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := l.Scan()
	if err != nil {
		t.Fatal(err)
	}
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

func TestScanStopsAtTornTail(t *testing.T) {
	l, path := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecCommit, TxnID: 1})
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
	got, err := l2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("torn tail should be dropped: got %d records", len(got))
	}
}

func TestScanStopsAtCorruptRecord(t *testing.T) {
	l, path := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecPageImage, TxnID: 1, PageID: 3, Payload: []byte("abcdef")})
	l.Append(Record{Type: RecCommit, TxnID: 1})
	l.Sync()
	end := l.Size() // logical end: the file itself is preallocated longer
	raw, _ := os.ReadFile(path)
	raw[end-2] ^= 0xff // corrupt inside the commit record
	os.WriteFile(path, raw, 0o644)

	l2, _ := Open(path)
	defer l2.Close()
	got, _ := l2.Scan()
	if len(got) != 2 {
		t.Fatalf("corrupt record should stop the scan: got %d", len(got))
	}
}

func TestRecoverAppliesOnlyCommitted(t *testing.T) {
	l, _ := newLog(t)
	// txn 1 commits; txns 2 and 3 never do.
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecPageImage, TxnID: 1, PageID: 10, Payload: []byte("one")})
	l.Append(Record{Type: RecBegin, TxnID: 2})
	l.Append(Record{Type: RecPageImage, TxnID: 2, PageID: 20, Payload: []byte("two")})
	l.Append(Record{Type: RecCommit, TxnID: 1})
	l.Append(Record{Type: RecBegin, TxnID: 3})
	l.Append(Record{Type: RecPageImage, TxnID: 3, PageID: 30, Payload: []byte("three")})
	l.Sync()

	applied := map[pager.PageID]string{}
	n, err := l.RecoverFull(func(id pager.PageID, img []byte) error {
		applied[id] = string(img)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replayed %d txns, want 1", n)
	}
	if applied[10] != "one" {
		t.Error("committed image not applied")
	}
	if _, ok := applied[20]; ok {
		t.Error("aborted image applied")
	}
	if _, ok := applied[30]; ok {
		t.Error("unfinished image applied")
	}
}

func TestTruncate(t *testing.T) {
	l, _ := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
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
	got, _ := l.Scan()
	if len(got) != 0 {
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
				if err := l.Append(Record{Type: RecBegin, TxnID: id}); err != nil {
					t.Error(err)
					return
				}
				if err := l.Append(Record{Type: RecCommit, TxnID: id}); err != nil {
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
	got, err := l2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*rounds*2 {
		t.Fatalf("reopen found %d records, want %d", len(got), writers*rounds*2)
	}
	seen := make(map[uint64]int)
	for _, r := range got {
		seen[r.TxnID]++
	}
	for id := uint64(1); id <= syncs; id++ {
		if seen[id] != 2 {
			t.Fatalf("txn %d: %d records survived, want 2", id, seen[id])
		}
	}
}

func TestSyncAbsorbsConcurrentAppends(t *testing.T) {
	// A Sync only guarantees records appended before it was called; records
	// landing during the fsync stay buffered for the next round and must not
	// be lost or reordered.
	l, _ := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: RecCommit, TxnID: 1})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := l.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Type != RecBegin || got[1].Type != RecCommit {
		t.Fatalf("got %+v", got)
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.wal")
	l, _ := Open(path)
	l.Append(Record{Type: RecBegin, TxnID: 9})
	l.Append(Record{Type: RecCommit, TxnID: 9})
	l.Sync()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := l2.Scan()
	if len(got) != 2 || got[0].TxnID != 9 {
		t.Errorf("reopen lost records: %+v", got)
	}
	// Appending after reopen must not clobber existing records.
	l2.Append(Record{Type: RecBegin, TxnID: 10})
	got, _ = l2.Scan()
	if len(got) != 3 {
		t.Errorf("append after reopen: got %d records", len(got))
	}
}
