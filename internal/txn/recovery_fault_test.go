package txn

// Recovery-path tests driven by the fault-injecting VFS: each test builds a
// specific failure the design claims to survive — a torn WAL tail, a failed
// group-commit fsync, a power cut between a catalog delta and its
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

// newFaultEnv creates a manager over a fault file system. Handles are not
// registered for cleanup: crash tests abandon them, as a killed process
// would.
func newFaultEnv(t *testing.T, fs *vfs.Fault) (*Manager, *pager.File, *wal.Log) {
	t.Helper()
	f, err := pager.CreateAt(fs, crashDB, 1024)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenAt(fs, crashWAL)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(f, l), f, l
}

// reopenFaultEnv reopens the store after a (simulated) crash.
func reopenFaultEnv(t *testing.T, fs *vfs.Fault) (*Manager, *pager.File, *wal.Log) {
	t.Helper()
	f, err := pager.OpenAt(fs, crashDB)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenAt(fs, crashWAL)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(f, l), f, l
}

// TestRecoveryTornWALTail tears the WAL's file write mid-record: a synced
// commit followed by a second commit whose frames only partially reach the
// file. Recovery must replay the synced commit, ignore the torn tail, and
// Verify must classify the residue as a crash tail, not mid-log corruption.
func TestRecoveryTornWALTail(t *testing.T) {
	fs := vfs.NewFault(1)
	m, f, l := newFaultEnv(t, fs)

	p1, _ := f.Allocate()
	p2, _ := f.Allocate()
	if err := commit(m, f, p1, []byte("first txn")); err != nil {
		t.Fatal(err)
	}

	// Append a second transaction and tear its file write at the sector
	// boundary: the begin frame fits in the surviving prefix, the page image
	// is cut mid-body.
	if err := l.Append(wal.Record{Type: wal.RecBegin, TxnID: 99}); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 900)
	for i := range img {
		img[i] = byte(i)
	}
	if err := l.Append(wal.Record{Type: wal.RecPageImage, TxnID: 99, PageID: p2, Payload: img}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Type: wal.RecCommit, TxnID: 99}); err != nil {
		t.Fatal(err)
	}
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpWrite && strings.HasSuffix(op.Path, ".wal") {
			return vfs.Tear
		}
		return vfs.OK
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync over a torn write reported success")
	}
	fs.Inject = nil

	// Power cut that persists the torn state.
	fs.Crash(vfs.CrashKeep)

	m2, f2, l2 := reopenFaultEnv(t, fs)
	rep, verr := l2.Verify()
	if verr != nil {
		t.Fatalf("torn tail misclassified as mid-log corruption: %v", verr)
	}
	if rep.TailBytes == 0 {
		t.Fatal("expected a non-empty crash tail after the torn write")
	}
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d txns, want only the synced one", n)
	}
	got, err := f2.ReadPage(p1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:9]) != "first txn" {
		t.Fatalf("synced commit lost: page reads %q", got[:9])
	}
	if _, err := f2.ReadPage(p2); err == nil {
		t.Fatal("torn, unsynced txn's page was replayed")
	}
}

// TestRecoveryGroupCommitFsyncFailure fails the WAL fsync under concurrent
// committers: every commit sharing the failed sync must surface
// wal.ErrSyncFailed (no acknowledgment on a retried fsync — the fsyncgate
// rule), the log must stay latched, and after a power cut the store must
// retain every previously acknowledged commit and nothing from the failed
// round.
func TestRecoveryGroupCommitFsyncFailure(t *testing.T) {
	fs := vfs.NewFault(2)
	m, f, _ := newFaultEnv(t, fs)

	p0, _ := f.Allocate()
	if err := commit(m, f, p0, []byte("durable")); err != nil {
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
	pages := make([]pager.PageID, writers)
	for i := range pages {
		pages[i], _ = f.Allocate()
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = commit(m, f, pages[i], []byte("lost"))
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
	if err := commit(m, f, p0, []byte("late")); !errors.As(err, &sf) {
		t.Fatalf("post-failure commit error %v is not ErrSyncFailed (latch broken)", err)
	}

	// Power cut: un-synced data is gone. The acked commit must recover; the
	// failed round must not.
	fs.Crash(vfs.CrashDrop)
	m2, f2, _ := reopenFaultEnv(t, fs)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := f2.ReadPage(p0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "durable" {
		t.Fatalf("acked commit lost: page reads %q", got[:7])
	}
	for i, id := range pages {
		if payload, err := f2.ReadPage(id); err == nil && string(payload[:4]) == "lost" {
			t.Fatalf("writer %d: unacknowledged commit survived the crash", i)
		}
	}
}

// TestRecoveryCatalogDeltaBeforeCheckpoint cuts power between an
// acknowledged LogApplied (page images + catalog tail-append delta) and the
// checkpoint that would have persisted them: recovery must replay the pages
// and hand the delta to OnRecoverCatalog.
func TestRecoveryCatalogDeltaBeforeCheckpoint(t *testing.T) {
	fs := vfs.NewFault(3)
	m, f, _ := newFaultEnv(t, fs)

	id, _ := f.Allocate()
	payload := []byte("tail batch page")
	if err := f.WritePage(id, payload); err != nil {
		t.Fatal(err)
	}
	delta := []byte("catalog tail-append delta")
	if err := m.LogApplied([]PageImage{{ID: id, Payload: payload}}, delta); err != nil {
		t.Fatal(err)
	}

	// Acked, no checkpoint yet: the page-file write and any header update
	// vanish; only the WAL survives.
	fs.Crash(vfs.CrashDrop)

	m2, f2, _ := reopenFaultEnv(t, fs)
	var deltas [][]byte
	m2.OnRecoverCatalog = func(b []byte) error {
		deltas = append(deltas, append([]byte(nil), b...))
		return nil
	}
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d txns, want 1", n)
	}
	if len(deltas) != 1 || string(deltas[0]) != string(delta) {
		t.Fatalf("catalog delta not replayed: got %q", deltas)
	}
	got, err := f2.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(payload)]) != string(payload) {
		t.Fatalf("page not replayed: reads %q", got[:len(payload)])
	}
}

// TestRecoverySkipsDeltasTheCatalogReflects: a catalog flushed after some
// commits reflects them, and recovery must not hand their deltas back — a
// fold may have absorbed the tails they append. Commits after the recorded
// id replay, and new commits are numbered past it.
func TestRecoverySkipsDeltasTheCatalogReflects(t *testing.T) {
	fs := vfs.NewFault(5)
	m, _, _ := newFaultEnv(t, fs)
	for _, delta := range []string{"one", "two", "three"} {
		if err := m.LogApplied(nil, []byte(delta)); err != nil {
			t.Fatal(err)
		}
	}
	reflects := m.Issued() - 1 // a flush after the second commit
	fs.Crash(vfs.CrashDrop)

	m2, _, _ := reopenFaultEnv(t, fs)
	var deltas []string
	m2.OnRecoverCatalog = func(b []byte) error {
		deltas = append(deltas, string(b))
		return nil
	}
	m2.ResumeAfter(reflects)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0] != "three" {
		t.Fatalf("replayed deltas %q, want only the one after the flush", deltas)
	}
	if err := m2.LogApplied(nil, []byte("four")); err != nil {
		t.Fatal(err)
	}
	if got := m2.Issued(); got != reflects+1 {
		t.Fatalf("first commit after resuming got id %d, want %d", got, reflects+1)
	}
}

// TestRecoveryHealsCorruptPage corrupts a committed page's durable bytes:
// ReadPage must fail with a typed, page-addressed error, and recovery must
// heal the page from its WAL image.
func TestRecoveryHealsCorruptPage(t *testing.T) {
	fs := vfs.NewFault(4)
	m, f, _ := newFaultEnv(t, fs)

	id, _ := f.Allocate()
	if err := commit(m, f, id, []byte("precious data")); err != nil {
		t.Fatal(err)
	}

	// At-rest corruption inside the page's payload (past the checksum).
	off := int64(id) * int64(f.PageSize())
	if n := fs.Corrupt(crashDB, off+8, 32); n != 32 {
		t.Fatalf("corrupted %d bytes, want 32", n)
	}
	_, err := f.ReadPage(id)
	var cp *pager.ErrCorruptPage
	if !errors.As(err, &cp) {
		t.Fatalf("read of corrupt page returned %v, want ErrCorruptPage", err)
	}
	if cp.Page != id {
		t.Fatalf("error names page %d, corrupted %d", cp.Page, id)
	}

	// Restart: recovery replays the commit's image over the damage.
	m2, f2, _ := reopenFaultEnv(t, fs)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := f2.ReadPage(id)
	if err != nil {
		t.Fatalf("page not healed: %v", err)
	}
	if string(got[:13]) != "precious data" {
		t.Fatalf("healed page reads %q", got[:13])
	}
}
