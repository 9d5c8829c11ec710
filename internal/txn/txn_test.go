package txn

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/wal"
)

// tailEnv is the engine's durable insert path in miniature: a catalog with
// one table, T, whose tails are single-segment byte streams, and a manager
// that logs their tail records and replays them into the catalog.
type tailEnv struct {
	m   *Manager
	f   *pager.File
	l   *wal.Log
	cat *catalog.Catalog
	mu  sync.Mutex // the table lock: publish is a read-modify-write of T
}

// attach loads the catalog persisted in f and hooks it to a new manager.
func attach(t *testing.T, f *pager.File, l *wal.Log) *tailEnv {
	t.Helper()
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, l)
	m.OnRecover = cat.ApplyTailAppend
	m.BeforeCheckpoint = cat.Flush
	return &tailEnv{m: m, f: f, l: l, cat: cat}
}

// create adds the empty table T and makes it durable.
func (e *tailEnv) create(t *testing.T) {
	t.Helper()
	if err := e.cat.Put(&catalog.Table{Name: "T", Fields: []catalog.FieldMeta{{Name: "b", Type: "bytes"}}, LayoutExpr: "rows(T)"}); err != nil {
		t.Fatal(err)
	}
	if err := e.f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func newEnv(t *testing.T) (*tailEnv, string) {
	t.Helper()
	dbPath := filepath.Join(t.TempDir(), "db.rdnt")
	f, err := pager.Create(dbPath, 1024)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dbPath + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); f.Close() })
	e := attach(t, f, l)
	e.create(t)
	return e, dbPath
}

// apply writes stream in place as a new tail of T and publishes it in
// memory, as the engine's publish phase does, returning the extent written,
// the commit id and the tail record — not yet logged.
func (e *tailEnv) apply(t *testing.T, stream string) (pager.PageID, uint64, []byte) {
	t.Helper()
	pages := uint64(len(stream)+e.f.PayloadSize()-1) / uint64(e.f.PayloadSize())
	start, err := e.f.AllocateRun(max(pages, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.f.WriteRun(start, []byte(stream)); err != nil {
		t.Fatal(err)
	}
	batch := []catalog.SegmentEntry{{Fields: []string{"b"}, Codecs: []string{""}, Meta: segment.Meta{
		ExtentStart: start, ExtentPages: max(pages, 1), UsedBytes: uint64(len(stream)), Rows: 1,
	}}}
	e.mu.Lock()
	defer e.mu.Unlock()
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	work := *tab
	work.Tails = append(append([][]catalog.SegmentEntry(nil), tab.Tails...), batch)
	work.RowCount++
	id := e.cat.PutBuffered(&work)
	return start, id, catalog.EncodeTailAppend("T", batch, 1, [][]byte{[]byte(stream)})
}

// insert is apply, then Commit: the one commit path.
func (e *tailEnv) insert(t *testing.T, stream string) error {
	t.Helper()
	_, id, rec := e.apply(t, stream)
	return e.m.Commit(id, rec)
}

// tails reads T's tails back from the page file, oldest first.
func (e *tailEnv) tails(t *testing.T) []string {
	t.Helper()
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, batch := range tab.Tails {
		m := batch[0].Meta
		buf, err := e.f.ReadRunInto(nil, m.ExtentStart, m.ExtentPages)
		if err != nil {
			t.Fatalf("tail at %d: %v", m.ExtentStart, err)
		}
		out = append(out, string(buf[:m.UsedBytes]))
	}
	return out
}

// wantTails fails unless T's tails read back as want.
func (e *tailEnv) wantTails(t *testing.T, want ...string) {
	t.Helper()
	if got := e.tails(t); !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		t.Fatalf("tails %q, want %q", got, want)
	}
}

// lose overwrites a tail's first page, as a crash that loses the unsynced
// in-place write does.
func lose(t *testing.T, f *pager.File, id pager.PageID) {
	t.Helper()
	if err := f.WritePage(id, make([]byte, f.PayloadSize())); err != nil {
		t.Fatal(err)
	}
}

// logTail appends a tail record group by hand; commit=false leaves it
// without its commit record.
func logTail(t *testing.T, l *wal.Log, id uint64, rec []byte, commit bool) {
	t.Helper()
	l.Append(wal.Record{Type: wal.RecBegin, TxnID: id})
	l.Append(wal.Record{Type: wal.RecTail, TxnID: id, Payload: rec})
	if commit {
		l.Append(wal.Record{Type: wal.RecCommit, TxnID: id})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitDurable(t *testing.T) {
	e, _ := newEnv(t)
	if err := e.insert(t, "committed data"); err != nil {
		t.Fatal(err)
	}
	e.wantTails(t, "committed data")
}

func TestCrashRecovery(t *testing.T) {
	// Simulate a crash after the commit record is durable but with the
	// in-place page write and the in-memory catalog lost: write the WAL
	// records directly, then recover into the persisted catalog.
	e, _ := newEnv(t)
	start, id, rec := e.apply(t, "after crash image")
	logTail(t, e.l, id, rec, true)
	lose(t, e.f, start)

	back := attach(t, e.f, e.l)
	back.wantTails(t) // the buffered append never reached disk
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	back.wantTails(t, "after crash image")
	if e.l.Size() != 0 {
		t.Error("log not truncated after recovery")
	}
}

func TestUncommittedNotRecovered(t *testing.T) {
	e, _ := newEnv(t)
	keep, _ := e.f.Allocate()
	e.f.WritePage(keep, []byte("keep me"))
	_, id, rec := e.apply(t, "drop me")
	logTail(t, e.l, id, rec, false)

	back := attach(t, e.f, e.l)
	if n, err := back.m.Recover(); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	back.wantTails(t)
	got, _ := e.f.ReadPage(keep)
	if string(got[:7]) != "keep me" {
		t.Error("uncommitted record written over a page")
	}
}

func TestRecoveryAfterDeferredCheckpoint(t *testing.T) {
	// A commit never syncs the page file or truncates the log; records stay
	// in the log until the checkpoint policy fires. Simulate a crash that
	// loses the in-place page writes (they were never synced) and verify the
	// deferred log still repairs them.
	e, _ := newEnv(t)
	e.m.CheckpointBytes = 0 // disable the size trigger: nothing checkpoints
	start, id, rec := e.apply(t, "survives the crash")
	if err := e.m.Commit(id, rec); err != nil {
		t.Fatal(err)
	}
	if e.l.Size() == 0 {
		t.Fatal("commit should leave its records in the log until a checkpoint")
	}
	// Crash: the applied (but unsynced) page content is lost; the fsync'd
	// log survives.
	lose(t, e.f, start)
	back := attach(t, e.f, e.l)
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	back.wantTails(t, "survives the crash")
	if e.l.Size() != 0 {
		t.Error("log not truncated after recovery")
	}
}

func TestCheckpointSizePolicy(t *testing.T) {
	// With a tiny CheckpointBytes every commit trips the size trigger: the
	// log is truncated off the commit path and the catalog naming the tail
	// is durable, so a subsequent recovery replays nothing and loses
	// nothing.
	e, _ := newEnv(t)
	e.m.CheckpointBytes = 1
	if err := e.insert(t, "checkpointed"); err != nil {
		t.Fatal(err)
	}
	if e.l.Size() != 0 {
		t.Errorf("size-triggered checkpoint should truncate the log, size=%d", e.l.Size())
	}
	back := attach(t, e.f, e.l)
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("recovery after checkpoint replayed %d txns, want 0", n)
	}
	back.wantTails(t, "checkpointed")
}

func TestRecoverIgnoresTornTailAfterCommit(t *testing.T) {
	// A crash can tear the record being appended when the machine died; the
	// commits fsync'd before it must still replay. Write a commit, append
	// garbage at the log's logical end, reopen, and recover.
	e, dbPath := newEnv(t)
	e.m.CheckpointBytes = 0
	start, id, rec := e.apply(t, "good commit")
	if err := e.m.Commit(id, rec); err != nil {
		t.Fatal(err)
	}
	end := e.l.Size()
	if err := e.l.Close(); err != nil {
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
	lose(t, e.f, start)
	back := attach(t, e.f, l2)
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	back.wantTails(t, "good commit")
}

func TestLogAppliedRecovery(t *testing.T) {
	// Writers apply in place, then log what they applied (Commit). By then
	// the tail's extent may have been freed by a fold and reused by another
	// writer: recovery writes the record to a fresh extent, so the reused one
	// keeps its new contents.
	e, _ := newEnv(t)
	e.m.CheckpointBytes = 0
	start, id, rec := e.apply(t, "bulk written")
	if err := e.f.WritePage(start, []byte("reused")); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Commit(id, rec); err != nil {
		t.Fatal(err)
	}
	back := attach(t, e.f, e.l)
	n, err := back.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("recovered %d txns, want 1", n)
	}
	back.wantTails(t, "bulk written")
	got, _ := e.f.ReadPage(start)
	if string(got[:6]) != "reused" {
		t.Error("recovery wrote over the extent the record names")
	}
}

func TestBacklogTriggersCheckpoint(t *testing.T) {
	// Queued frees bring a checkpoint on at their share of the file (of
	// CheckpointBytes, for a file smaller than that), whatever the log's
	// size.
	e, _ := newEnv(t)
	m := e.m
	var backlog int64
	m.Backlog = func() int64 { return backlog }
	m.CheckpointBytes = 1 << 20
	for _, b := range []int64{0, m.CheckpointBytes/backlogShare - 1} {
		backlog = b
		if err := e.insert(t, "small"); err != nil {
			t.Fatal(err)
		}
		if e.l.Size() == 0 {
			t.Fatalf("a small commit with a backlog of %d bytes checkpointed", b)
		}
	}
	backlog = m.CheckpointBytes / backlogShare
	if err := m.MaybeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if e.l.Size() != 0 {
		t.Error("a backlog at its share did not checkpoint")
	}
}

func TestConcurrentGroupCommitters(t *testing.T) {
	// W goroutines insert concurrently. Every commit must be durable and
	// recover from the log, and the log must never issue more fsyncs than
	// commits (the ticket protocol's amortization bound). Run under -race
	// this also exercises the leader/waiter handoff in wal.Log.Sync.
	e, _ := newEnv(t)
	const writers, rounds = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := e.insert(t, string([]byte{byte(w), byte(i)})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commits := uint64(writers * rounds)
	if fs := e.l.Fsyncs(); fs == 0 || fs > commits {
		t.Errorf("fsyncs = %d, want in [1, %d]", fs, commits)
	}
	back := attach(t, e.f, e.l)
	if n, err := back.m.Recover(); err != nil || n != int(commits) {
		t.Fatalf("recovered %d txns (err %v), want %d", n, err, commits)
	}
	next := make([]byte, writers) // each writer's tails come back in its order
	for _, s := range back.tails(t) {
		if w := s[0]; s[1] != next[w] {
			t.Fatalf("writer %d: tail %d recovered where %d was due", w, s[1], next[w])
		}
		next[s[0]]++
	}
	for w, n := range next {
		if n != rounds {
			t.Errorf("writer %d: %d tails recovered, want %d", w, n, rounds)
		}
	}
}
