package txn

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/wal"
)

func newEnv(t *testing.T) (*Manager, *pager.File, *wal.Log, string) {
	t.Helper()
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.rdnt")
	f, err := pager.Create(dbPath, 1024)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dbPath + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); f.Close() })
	return NewManager(f, l), f, l, dbPath
}

// commit is the production write path in miniature: apply the page in
// place, then make it durable with LogApplied.
func commit(m *Manager, f *pager.File, id pager.PageID, payload []byte) error {
	if err := f.WritePage(id, payload); err != nil {
		return err
	}
	return m.LogApplied([]PageImage{{ID: id, Payload: payload}}, nil)
}

func TestCommitDurable(t *testing.T) {
	m, f, _, _ := newEnv(t)
	id, _ := f.Allocate()
	if err := commit(m, f, id, []byte("committed data")); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:14]) != "committed data" {
		t.Errorf("got %q", got[:14])
	}
}

func TestCrashRecovery(t *testing.T) {
	// Simulate a crash after the commit record is durable but with the
	// in-place page write lost: write the WAL records directly, then recover.
	m, f, l, _ := newEnv(t)
	id, _ := f.Allocate()
	f.WritePage(id, []byte("before"))

	l.Append(wal.Record{Type: wal.RecBegin, TxnID: 99})
	l.Append(wal.Record{Type: wal.RecPageImage, TxnID: 99, PageID: id, Payload: []byte("after crash image")})
	l.Append(wal.Record{Type: wal.RecCommit, TxnID: 99})
	l.Sync()

	n, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	got, _ := f.ReadPage(id)
	if string(got[:17]) != "after crash image" {
		t.Error("recovery did not apply committed image")
	}
	if l.Size() != 0 {
		t.Error("log not truncated after recovery")
	}
}

func TestUncommittedNotRecovered(t *testing.T) {
	m, f, l, _ := newEnv(t)
	id, _ := f.Allocate()
	f.WritePage(id, []byte("keep me"))
	l.Append(wal.Record{Type: wal.RecBegin, TxnID: 5})
	l.Append(wal.Record{Type: wal.RecPageImage, TxnID: 5, PageID: id, Payload: []byte("drop me")})
	l.Sync()

	if n, err := m.Recover(); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, _ := f.ReadPage(id)
	if string(got[:7]) != "keep me" {
		t.Error("uncommitted image applied")
	}
}

func TestRecoveryAfterDeferredCheckpoint(t *testing.T) {
	// A commit never syncs the page file or truncates the log; images stay
	// in the log until the checkpoint policy fires. Simulate a crash that
	// loses the in-place page writes (they were never synced) and verify the
	// deferred log still repairs them.
	m, f, l, _ := newEnv(t)
	m.CheckpointBytes = 0 // disable the size trigger: nothing checkpoints
	id, _ := f.Allocate()
	if err := commit(m, f, id, []byte("survives the crash")); err != nil {
		t.Fatal(err)
	}
	if l.Size() == 0 {
		t.Fatal("commit should leave its records in the log until a checkpoint")
	}
	// Crash: the applied (but unsynced) page content is lost; the fsync'd
	// log survives.
	f.WritePage(id, make([]byte, 18))
	n, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	got, _ := f.ReadPage(id)
	if string(got[:18]) != "survives the crash" {
		t.Error("deferred-checkpoint image not replayed")
	}
	if l.Size() != 0 {
		t.Error("log not truncated after recovery")
	}
}

func TestCheckpointSizePolicy(t *testing.T) {
	// With a tiny CheckpointBytes every commit trips the size trigger: the
	// log is truncated off the commit path and the applied pages are durable
	// in the page file, so a subsequent recovery replays nothing and loses
	// nothing.
	m, f, l, _ := newEnv(t)
	m.CheckpointBytes = 1
	id, _ := f.Allocate()
	if err := commit(m, f, id, []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Errorf("size-triggered checkpoint should truncate the log, size=%d", l.Size())
	}
	n, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("recovery after checkpoint replayed %d txns, want 0", n)
	}
	got, _ := f.ReadPage(id)
	if string(got[:12]) != "checkpointed" {
		t.Error("checkpointed page lost")
	}
}

func TestRecoverIgnoresTornTailAfterCommit(t *testing.T) {
	// A crash can tear the record being appended when the machine died; the
	// commits fsync'd before it must still replay. Write a commit, append
	// garbage at the log's logical end, reopen, and recover.
	m, f, l, dbPath := newEnv(t)
	m.CheckpointBytes = 0
	id, _ := f.Allocate()
	if err := commit(m, f, id, []byte("good commit")); err != nil {
		t.Fatal(err)
	}
	end := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := dbPath + ".wal"
	wf, err := os.OpenFile(walPath, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.WriteAt([]byte{250, 0, 0, 0, 9, 9, 9}, end); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	l2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	m2 := NewManager(f, l2)
	f.WritePage(id, make([]byte, 11)) // lose the applied page
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	got, _ := f.ReadPage(id)
	if string(got[:11]) != "good commit" {
		t.Error("commit before the torn tail not replayed")
	}
}

func TestLogAppliedRecovery(t *testing.T) {
	// Bulk writers write pages in place, then LogApplied makes them durable
	// after the fact. A crash that loses the in-place writes must be
	// repaired by replaying the logged images.
	m, f, _, _ := newEnv(t)
	m.CheckpointBytes = 0
	id, _ := f.Allocate()
	f.WritePage(id, []byte("bulk written"))
	if err := m.LogApplied([]PageImage{{ID: id, Payload: []byte("bulk written")}}, nil); err != nil {
		t.Fatal(err)
	}
	f.WritePage(id, make([]byte, 12)) // crash loses the unsynced write
	n, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	got, _ := f.ReadPage(id)
	if string(got[:12]) != "bulk written" {
		t.Error("LogApplied image not replayed")
	}
}

func TestRecoverHealsStaleHeader(t *testing.T) {
	// The page-file header (allocation cursor, free list) is only durable
	// as of the last checkpoint, so after a crash the fsync'd WAL can
	// reference pages the reopened header does not cover yet. Recovery
	// must accept those images, heal the cursor, and never hand the healed
	// pages out again.
	m, f, l, _ := newEnv(t)
	beyond := pager.PageID(f.NumPages()) + 3 // past the header's cursor
	l.Append(wal.Record{Type: wal.RecBegin, TxnID: 7})
	l.Append(wal.Record{Type: wal.RecPageImage, TxnID: 7, PageID: beyond, Payload: []byte("beyond cursor")})
	l.Append(wal.Record{Type: wal.RecCommit, TxnID: 7})
	l.Sync()
	n, err := m.Recover()
	if err != nil {
		t.Fatalf("recovery must heal a stale header, got: %v", err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	got, err := f.ReadPage(beyond)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:13]) != "beyond cursor" {
		t.Error("replayed page content lost")
	}
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id <= beyond {
		t.Errorf("allocation handed out healed page range: got %d, cursor should be past %d", id, beyond)
	}
}

func TestLogAppliedSinceBarrierFallback(t *testing.T) {
	// A writer that captured the barrier before it moved — by a
	// CheckpointBarrier, or by an AdvanceBarrier whose frees wait for a
	// checkpoint — must not log its images: their extents may have been
	// freed and reallocated, and replaying them after a crash would clobber
	// the new contents. The fallback checkpoint keeps the applied state
	// durable.
	for name, move := range map[string]func(*Manager) error{
		"checkpoint": (*Manager).CheckpointBarrier,
		"advance":    func(m *Manager) error { m.AdvanceBarrier(); return nil },
	} {
		t.Run(name, func(t *testing.T) {
			m, f, l, _ := newEnv(t)
			id, _ := f.Allocate()
			f.WritePage(id, []byte("applied"))
			b := m.Barrier()
			if err := move(m); err != nil {
				t.Fatal(err)
			}
			if err := m.LogAppliedSince(b, []PageImage{{ID: id, Payload: []byte("stale image")}}, nil); err != nil {
				t.Fatal(err)
			}
			if l.Size() != 0 {
				t.Error("stale images must not reach the log (fallback should checkpoint instead)")
			}
			got, _ := f.ReadPage(id)
			if string(got[:7]) != "applied" {
				t.Error("applied page lost")
			}
			if n, err := m.Recover(); err != nil || n != 0 {
				t.Errorf("recovery after fallback: n=%d err=%v", n, err)
			}
		})
	}
}

func TestBacklogTriggersCheckpoint(t *testing.T) {
	// Queued frees bring a checkpoint on at their share of the file (of
	// CheckpointBytes, for a file smaller than that), whatever the log's
	// size.
	m, f, l, _ := newEnv(t)
	var backlog int64
	m.Backlog = func() int64 { return backlog }
	m.CheckpointBytes = 1 << 20
	id, _ := f.Allocate()
	for _, b := range []int64{0, m.CheckpointBytes/backlogShare - 1} {
		backlog = b
		if err := commit(m, f, id, []byte("small")); err != nil {
			t.Fatal(err)
		}
		if l.Size() == 0 {
			t.Fatalf("a small commit with a backlog of %d bytes checkpointed", b)
		}
	}
	backlog = m.CheckpointBytes / backlogShare
	if err := m.MaybeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Error("a backlog at its share did not checkpoint")
	}
}

func TestConcurrentGroupCommitters(t *testing.T) {
	// W goroutines commit to private pages concurrently. Every commit must
	// be durable and correctly applied, and the log must never issue more
	// fsyncs than commits (the ticket protocol's amortization bound). Run
	// under -race this also exercises the leader/waiter handoff in
	// wal.Log.Sync.
	m, f, l, _ := newEnv(t)
	const writers, rounds = 8, 10
	ids := make([]pager.PageID, writers)
	for w := range ids {
		ids[w], _ = f.Allocate()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := commit(m, f, ids[w], []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commits := uint64(writers * rounds)
	if fs := l.Fsyncs(); fs == 0 || fs > commits {
		t.Errorf("fsyncs = %d, want in [1, %d]", fs, commits)
	}
	for w := 0; w < writers; w++ {
		got, err := f.ReadPage(ids[w])
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(w) || got[1] != byte(rounds-1) {
			t.Errorf("writer %d final page = %v, want [%d %d]", w, got[:2], w, rounds-1)
		}
	}
}
