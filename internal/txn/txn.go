// Package txn is RodentStore's durability manager: redo logging of writes
// that were already applied in place, plus the checkpoints that let the log
// be truncated. It is one of the facilities the paper argues (§1) should be
// built once and shared by every physical layout rather than re-implemented
// per storage engine.
//
// The one commit path: a writer applies its pages to the page file and its
// update to the in-memory catalog under its own higher-level lock (the
// engine's table lock), taking a commit id from the catalog as it does;
// releases that lock; then calls Commit, which appends the writer's logical
// record (a tail record: no page ids) as one log frame under that id and
// waits on the log's shared fsync ticket. The frame's checksum is its
// commit: recovery hands each intact tail frame to OnRecover, which writes
// what it describes to freshly allocated pages, so a record can never
// replay over a page a later write owns. Mutual exclusion between writers
// is the caller's business — this package holds no table locks.
package txn

import (
	"sync"

	"rodentstore/internal/pager"
	"rodentstore/internal/wal"
)

// DefaultCheckpointBytes is the log size at which a commit, once its record
// is durable, runs a checkpoint (page-file sync + log truncate).
const DefaultCheckpointBytes = 4 << 20

// backlogShare bounds the space extents waiting on a checkpoint to be freed
// (Backlog) hold, and so what deferring frees adds to the file: a checkpoint
// is due once they reach 1/backlogShare of the pages in use, or of
// CheckpointBytes while the file holds less than that.
const backlogShare = 32

// Manager makes applied writes durable over one page file and one log.
type Manager struct {
	file *pager.File
	log  *wal.Log

	// CheckpointBytes triggers a checkpoint when the log grows past it (0
	// disables the triggers, the Backlog's included). A commit checks them
	// once its record is durable, and Commit runs the checkpoint it trips
	// (MaybeCheckpoint) before returning: that committer waits for the
	// whole checkpoint, and other commits' appends wait on ckptMu while it
	// runs.
	CheckpointBytes int64

	// Backlog, when set, reports the bytes of the extents queued to be freed
	// by the next checkpoint: space the file cannot reuse until then. It
	// triggers a checkpoint at its share of the file (backlogShare).
	Backlog func() int64

	// BeforeCheckpoint, when set, runs at the start of every checkpoint
	// (and after recovery replay), before the page file is synced and the
	// log truncated. The engine hooks the catalog's Flush here so buffered
	// catalog updates reach disk before the log records that could rebuild
	// them are discarded. Set it before the first commit.
	BeforeCheckpoint func() error

	// AfterCheckpoint, when set, runs at the end of every successful
	// checkpoint, after the page file is synced and the log truncated. The
	// engine hooks deferred extent freeing here: an extent a catalog update
	// stopped referencing may only be reused once that update is durable —
	// otherwise a crash could leave the old catalog authoritative over an
	// extent since rewritten. Freeing after the checkpoint makes the failure
	// mode a page leak, never corruption.
	AfterCheckpoint func() error

	// OnRecover, when set, receives each committed record (with its commit
	// id) during Recover, in log order. The engine hooks the catalog's
	// ApplyTailAppend here. Set it before Recover.
	OnRecover func(id uint64, record []byte) error

	// ckptMu orders checkpoints against in-flight commits: Commit holds the
	// read side across its append, so a checkpoint (write side) never
	// truncates a frame appended after its flush, whose commit id that flush
	// did not reflect.
	ckptMu sync.RWMutex
}

// NewManager creates a manager. Call Recover before the first commit when
// opening an existing database.
func NewManager(file *pager.File, log *wal.Log) *Manager {
	return &Manager{file: file, log: log, CheckpointBytes: DefaultCheckpointBytes}
}

// Checkpoint forces a checkpoint now: every applied page is made durable,
// then the log is truncated. It waits for in-flight commits to finish
// appending their records first.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.checkpointLocked()
}

// checkpointLocked does the checkpoint work. Caller holds ckptMu (write).
func (m *Manager) checkpointLocked() error {
	if m.BeforeCheckpoint != nil {
		if err := m.BeforeCheckpoint(); err != nil {
			return err
		}
	}
	if err := m.file.Sync(); err != nil {
		return err
	}
	if err := m.log.Truncate(); err != nil {
		return err
	}
	if m.AfterCheckpoint != nil {
		return m.AfterCheckpoint()
	}
	return nil
}

// Commit makes an applied write durable: record, the write's logical
// description, is appended to the log as one tail frame under id (the
// commit id the caller's catalog update got) and the log is synced, sharing
// the group-commit fsync. Writers apply in place under their own lock,
// release it, then call Commit, so concurrent callers' fsyncs coalesce.
// A checkpoint that runs first already persisted the update (the catalog
// flush covers id), and recovery skips the record then.
func (m *Manager) Commit(id uint64, record []byte) error {
	m.ckptMu.RLock()
	err := m.log.Append(wal.Record{Type: wal.RecTail, TxnID: id, Payload: record})
	m.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	if err := m.log.Sync(); err != nil {
		return err
	}
	return m.MaybeCheckpoint()
}

// MaybeCheckpoint runs a checkpoint if one is due — the log has outgrown
// CheckpointBytes, or the Backlog its share of the file — and no other
// checkpoint or commit is in the way (contended attempts are skipped — the
// trigger fires again on a later commit).
func (m *Manager) MaybeCheckpoint() error {
	if m.CheckpointBytes <= 0 || !m.checkpointDue() {
		return nil
	}
	if !m.ckptMu.TryLock() {
		return nil
	}
	defer m.ckptMu.Unlock()
	return m.checkpointLocked()
}

// checkpointDue reports whether the log or the Backlog calls for a
// checkpoint (MaybeCheckpoint).
func (m *Manager) checkpointDue() bool {
	if m.log.Size() >= m.CheckpointBytes {
		return true
	}
	if m.Backlog == nil {
		return false
	}
	inUse := int64(m.file.NumPages()) * int64(m.file.PageSize())
	return m.Backlog()*backlogShare >= max(inUse, m.CheckpointBytes)
}

// Recover replays the log's tail records (each goes to OnRecover), then
// checkpoints: the catalog updates they rebuilt are flushed and the page
// file synced before the log that could rebuild them again is truncated. It
// must run before the first commit, with the hooks already set.
func (m *Manager) Recover() (int, error) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	n, err := m.log.Replay(func(id uint64, record []byte) error {
		if m.OnRecover == nil {
			return nil
		}
		return m.OnRecover(id, record)
	})
	if err != nil {
		return n, err
	}
	return n, m.checkpointLocked()
}
