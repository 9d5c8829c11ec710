package txn

// Recovery-path tests driven by the fault-injecting VFS: each test builds a
// specific failure the design claims to survive — a torn WAL tail, a failed
// group-commit fsync, a power cut between a tail record and its
// checkpoint, a corrupt durable page — and verifies the recovery contract:
// every acknowledged commit survives, nothing unacknowledged is replayed.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/vfs"
	"rodentstore/internal/wal"
)

const (
	crashDB  = "crash.rdnt"
	crashWAL = "crash.rdnt.wal"
)

// newFaultEnv creates a tail env over a fault file system, table T made
// durable. Handles are not registered for cleanup: crash tests abandon
// them, as a killed process would.
func newFaultEnv(t *testing.T, fs *vfs.Fault) *tailEnv {
	t.Helper()
	f, err := pager.CreateAt(fs, crashDB, 1024)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenAt(fs, crashWAL)
	if err != nil {
		t.Fatal(err)
	}
	e := attach(t, f, l)
	e.create(t)
	return e
}

// reopenFaultEnv reopens the store after a (simulated) crash, recovery not
// yet run.
func reopenFaultEnv(t *testing.T, fs *vfs.Fault) *tailEnv {
	t.Helper()
	f, err := pager.OpenAt(fs, crashDB)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenAt(fs, crashWAL)
	if err != nil {
		t.Fatal(err)
	}
	return attach(t, f, l)
}

// TestRecoveryTornWALTail tears the WAL's file write mid-record: a synced
// commit followed by a second commit whose frames only partially reach the
// file. Recovery must replay the synced commit, ignore the torn tail, and
// Verify must classify the residue as a crash tail, not mid-log corruption.
func TestRecoveryTornWALTail(t *testing.T) {
	fs := vfs.NewFault(1)
	e := newFaultEnv(t, fs)
	if err := e.insert(t, "first txn"); err != nil {
		t.Fatal(err)
	}

	// Append a second transaction and tear its file write at the sector
	// boundary: the tail record is cut mid-body.
	img := make([]byte, 900)
	for i := range img {
		img[i] = byte(i)
	}
	_, id, rec := e.apply(t, string(img))
	for _, r := range []wal.Record{
		{Type: wal.RecTail, TxnID: id, Payload: rec},
	} {
		if err := e.l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpWrite && strings.HasSuffix(op.Path, ".wal") {
			return vfs.Tear
		}
		return vfs.OK
	}
	if err := e.l.Sync(); err == nil {
		t.Fatal("sync over a torn write reported success")
	}
	fs.Inject = nil

	// Power cut that persists the torn state.
	fs.Crash(vfs.CrashKeep)

	back := reopenFaultEnv(t, fs)
	rep, verr := back.l.Verify()
	if verr != nil {
		t.Fatalf("torn tail misclassified as mid-log corruption: %v", verr)
	}
	if rep.TailBytes == 0 {
		t.Fatal("expected a non-empty crash tail after the torn write")
	}
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d txns, want only the synced one", n)
	}
	back.wantTails(t, "first txn") // the torn, unsynced txn is not replayed
}

// TestRecoveryGroupCommitFsyncFailure fails the WAL fsync under concurrent
// committers: every commit sharing the failed sync must surface
// wal.ErrSyncFailed (no acknowledgment on a retried fsync — the fsyncgate
// rule), the log must stay latched, and after a power cut the store must
// retain every previously acknowledged commit and nothing from the failed
// round.
func TestRecoveryGroupCommitFsyncFailure(t *testing.T) {
	fs := vfs.NewFault(2)
	e := newFaultEnv(t, fs)
	if err := e.insert(t, "durable"); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if armed.Load() && op.Kind == vfs.OpSync && strings.HasSuffix(op.Path, ".wal") {
			return vfs.Fail
		}
		return vfs.OK
	}
	armed.Store(true)

	const writers = 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.insert(t, "lost")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var sf *wal.ErrSyncFailed
		if !errors.As(err, &sf) {
			t.Fatalf("writer %d: commit error %v is not ErrSyncFailed", i, err)
		}
	}
	// The latch holds: a later commit on the same log must fail without
	// another injected fault.
	armed.Store(false)
	var sf *wal.ErrSyncFailed
	if err := e.insert(t, "late"); !errors.As(err, &sf) {
		t.Fatalf("post-failure commit error %v is not ErrSyncFailed (latch broken)", err)
	}

	// Power cut: un-synced data is gone. The acked commit must recover; the
	// failed round must not.
	fs.Crash(vfs.CrashDrop)
	back := reopenFaultEnv(t, fs)
	if _, err := back.m.Recover(); err != nil {
		t.Fatal(err)
	}
	back.wantTails(t, "durable")
}

// TestRecoveryCatalogDeltaBeforeCheckpoint cuts power between an
// acknowledged Commit (a tail record) and the checkpoint that would have
// persisted its catalog update: recovery must rebuild the tail from the
// record, and persist it.
func TestRecoveryCatalogDeltaBeforeCheckpoint(t *testing.T) {
	fs := vfs.NewFault(3)
	e := newFaultEnv(t, fs)
	if err := e.insert(t, "tail batch page"); err != nil {
		t.Fatal(err)
	}

	// Acked, no checkpoint yet: the page-file write and any header update
	// vanish; only the WAL survives.
	fs.Crash(vfs.CrashDrop)

	back := reopenFaultEnv(t, fs)
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d txns, want 1", n)
	}
	back.wantTails(t, "tail batch page")
	fs.Crash(vfs.CrashDrop) // recovery left nothing for the log to redo
	reopenFaultEnv(t, fs).wantTails(t, "tail batch page")
}

// TestRecoverySkipsDeltasTheCatalogReflects: a catalog flushed after some
// commits reflects them, and recovery must not replay their records — a
// fold may have absorbed the tails they append. Commits after the recorded
// id replay, and new commits are numbered past it.
func TestRecoverySkipsDeltasTheCatalogReflects(t *testing.T) {
	fs := vfs.NewFault(5)
	e := newFaultEnv(t, fs)
	for _, tail := range []string{"one", "two", "three"} {
		if err := e.insert(t, tail); err != nil {
			t.Fatal(err)
		}
		if tail == "two" { // a flush after the second commit
			if err := e.cat.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs.Crash(vfs.CrashDrop)

	back := reopenFaultEnv(t, fs)
	if n, err := back.m.Recover(); err != nil || n != 3 {
		t.Fatalf("recovered %d txns (err %v), want 3", n, err)
	}
	back.wantTails(t, "one", "two", "three")
	if _, id, _ := back.apply(t, "four"); id != 4 {
		t.Fatalf("first commit after recovery got id %d, want 4", id)
	}
}

// TestRecoveryHealsCorruptPage corrupts a committed tail's durable bytes:
// ReadPage must fail with a typed, page-addressed error, and recovery must
// heal the tail from its logged record.
func TestRecoveryHealsCorruptPage(t *testing.T) {
	fs := vfs.NewFault(4)
	e := newFaultEnv(t, fs)
	id, cid, rec := e.apply(t, "precious data")
	if err := e.m.Commit(cid, rec); err != nil {
		t.Fatal(err)
	}

	// At-rest corruption inside the page's payload (past the checksum).
	off := int64(id) * int64(e.f.PageSize())
	if n := fs.Corrupt(crashDB, off+8, 32); n != 32 {
		t.Fatalf("corrupted %d bytes, want 32", n)
	}
	_, err := e.f.ReadPage(id)
	var cp *pager.ErrCorruptPage
	if !errors.As(err, &cp) {
		t.Fatalf("read of corrupt page returned %v, want ErrCorruptPage", err)
	}
	if cp.Page != id {
		t.Fatalf("error names page %d, corrupted %d", cp.Page, id)
	}

	// Restart: recovery rewrites the tail from its record.
	back := reopenFaultEnv(t, fs)
	if _, err := back.m.Recover(); err != nil {
		t.Fatal(err)
	}
	back.wantTails(t, "precious data")
}
