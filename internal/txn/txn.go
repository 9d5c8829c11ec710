// Package txn is RodentStore's durability manager: redo logging of page
// writes that were already applied in place, plus the checkpoints that let
// the log be truncated. It is one of the facilities the paper argues (§1)
// should be built once and shared by every physical layout rather than
// re-implemented per storage engine.
//
// The one commit path: a writer applies its pages to the page file under its
// own higher-level lock (the engine's table lock), releases that lock, then
// calls LogAppliedSince, which appends the page images as one committed
// record group and waits on the log's shared fsync ticket. Recovery
// (wal.Log.RecoverFull) re-applies the images of committed groups, which is
// idempotent. Mutual exclusion between writers is the caller's business —
// this package holds no table locks.
package txn

import (
	"sync"
	"sync/atomic"

	"rodentstore/internal/pager"
	"rodentstore/internal/wal"
)

// DefaultCheckpointBytes is the log size at which a commit schedules a
// checkpoint (page-file sync + log truncate) off its own durability path.
const DefaultCheckpointBytes = 4 << 20

// backlogShare bounds the space extents waiting on a checkpoint to be freed
// (Backlog) hold, and so what deferring frees adds to the file: a checkpoint
// is due once they reach 1/backlogShare of the pages in use, or of
// CheckpointBytes while the file holds less than that.
const backlogShare = 32

// Manager makes applied page writes durable over one page file and one log.
type Manager struct {
	file    *pager.File
	log     *wal.Log
	nextTxn atomic.Uint64 // ids of logged record groups
	// reflected is the id ResumeAfter was given: the catalog already holds
	// every commit numbered at or below it, so Recover skips their deltas.
	reflected uint64

	// CheckpointBytes triggers a checkpoint when the log grows past it (0
	// disables the triggers, the Backlog's included). Checkpoints run
	// opportunistically after a commit has already acknowledged, never on
	// the commit's durability path.
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
	// otherwise a crash could leave the old catalog authoritative while WAL
	// replay rewrites the reallocated extent. Freeing after the checkpoint
	// makes the failure mode a page leak, never corruption.
	AfterCheckpoint func() error

	// OnRecoverCatalog, when set, receives each committed catalog delta
	// (wal.RecCatalog payload) during Recover, in log order, except those of
	// commits the catalog already reflects (ResumeAfter). The engine hooks
	// the catalog's ApplyTailAppend here. Set it before Recover.
	OnRecoverCatalog func([]byte) error

	// ckptMu orders checkpoints against in-flight commits: LogAppliedSince
	// holds the read side from its barrier check to its last log append, so
	// a checkpoint (write side) never truncates half a record group or lets
	// a barrier slip between the check and the append.
	ckptMu sync.RWMutex

	// barrier counts CheckpointBarrier and AdvanceBarrier calls — each made
	// because extents are about to be freed. A bulk writer captures Barrier
	// while its pages cannot yet have been freed (it still holds the lock that
	// orders it against the freeing path) and passes it to LogAppliedSince,
	// which refuses to log images whose extents may have been freed (and
	// reallocated) in between — replaying those after a crash would clobber
	// the extents' new contents.
	barrier atomic.Uint64
}

// NewManager creates a manager. Call Recover before the first commit when
// opening an existing database.
func NewManager(file *pager.File, log *wal.Log) *Manager {
	log.ReserveBuffer(file.PageSize() + 128)
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

// Barrier returns the current free-barrier value, for LogAppliedSince.
func (m *Manager) Barrier() uint64 { return m.barrier.Load() }

// AdvanceBarrier moves the free barrier without a checkpoint, for a caller
// that only queues extents for the next checkpoint to free. An insert that
// captured an older value checkpoints instead of logging images: every
// checkpoint that could free the queued extents truncates the log under
// ckptMu's write side, so an insert's append either lands before it (and is
// truncated with it) or checks the barrier after the advance.
func (m *Manager) AdvanceBarrier() { m.barrier.Add(1) }

// Issued returns the highest commit id handed out so far (catalog.Issued).
func (m *Manager) Issued() uint64 { return m.nextTxn.Load() }

// ResumeAfter tells the manager that the catalog already reflects every
// commit numbered at or below id (catalog.Reflects): new commits are
// numbered after it, and Recover skips the catalog deltas of those it
// covers — a catalog flushed after a fold absorbed a logged tail must not
// get the tail back from the log. Call it before Recover.
func (m *Manager) ResumeAfter(id uint64) {
	m.reflected = id
	if m.nextTxn.Load() < id {
		m.nextTxn.Store(id)
	}
}

// CheckpointBarrier is Checkpoint for callers about to free extents that
// may appear in not-yet-logged page images: it advances the free barrier
// so any LogAppliedSince holding an older barrier value falls back to a
// checkpoint instead of logging stale images.
func (m *Manager) CheckpointBarrier() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	m.barrier.Add(1)
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

// PageImage pairs a page id with its payload, for LogApplied.
type PageImage struct {
	ID      pager.PageID
	Payload []byte
}

// LogApplied makes already-applied page writes durable: the images are
// appended to the log as one committed record group and the log is synced
// (sharing the group-commit fsync). Writers use it to move the fsync wait
// off their critical section — they write pages in place under their own
// higher-level lock, release it, then call LogApplied, so concurrent
// callers' fsyncs coalesce. Recovery re-applies the images, which is
// idempotent.
//
// catalogDelta, when non-nil, is logged alongside the images as a
// wal.RecCatalog record: recovery hands it to OnRecoverCatalog after
// re-applying the images, so metadata describing the pages (a catalog tail
// append) becomes redo-durable in the same fsync without rewriting the
// catalog itself.
//
// Callers that later rewrite or free those pages must CheckpointBarrier
// (or AdvanceBarrier, and free only at a checkpoint) first, so a stale
// image cannot be replayed over the new content after a crash.
func (m *Manager) LogApplied(images []PageImage, catalogDelta []byte) error {
	return m.LogAppliedSince(m.barrier.Load(), images, catalogDelta)
}

// LogAppliedSince is LogApplied guarded by the free barrier: barrier is the
// Barrier() value the caller captured while it still held the lock that
// orders it against extent frees. If the barrier has moved since,
// some of the images' extents may already be freed — and reallocated — so
// logging them could replay stale bytes over new content after a crash.
// In that case nothing is logged; a fresh checkpoint makes everything the
// caller applied durable instead (same guarantee, no redo records).
func (m *Manager) LogAppliedSince(barrier uint64, images []PageImage, catalogDelta []byte) error {
	if len(images) == 0 && catalogDelta == nil {
		return nil
	}
	id := m.nextTxn.Add(1)
	m.ckptMu.RLock()
	if m.barrier.Load() != barrier {
		m.ckptMu.RUnlock()
		return m.Checkpoint()
	}
	err := func() error {
		if err := m.log.Append(wal.Record{Type: wal.RecBegin, TxnID: id}); err != nil {
			return err
		}
		for _, img := range images {
			if err := m.log.Append(wal.Record{
				Type: wal.RecPageImage, TxnID: id, PageID: img.ID, Payload: img.Payload,
			}); err != nil {
				return err
			}
		}
		if catalogDelta != nil {
			if err := m.log.Append(wal.Record{
				Type: wal.RecCatalog, TxnID: id, Payload: catalogDelta,
			}); err != nil {
				return err
			}
		}
		return m.log.Append(wal.Record{Type: wal.RecCommit, TxnID: id})
	}()
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

// Recover replays committed record groups from the log into the page file
// (catalog deltas go to OnRecoverCatalog) and truncates the log. It must
// run before the first commit, with both hooks already set.
func (m *Manager) Recover() (int, error) {
	var onCatalog func(uint64, []byte) error
	if m.OnRecoverCatalog != nil {
		onCatalog = func(txn uint64, delta []byte) error {
			if txn <= m.reflected {
				return nil // the catalog was flushed after this commit
			}
			return m.OnRecoverCatalog(delta)
		}
	}
	n, err := m.log.RecoverFull(func(id pager.PageID, img []byte) error {
		// RecoverPage, not WritePage: the stale header's allocation state
		// may not cover WAL-logged pages yet (the cursor and free list are
		// only durable as of the last checkpoint).
		return m.file.RecoverPage(id, img)
	}, onCatalog)
	if err != nil {
		return n, err
	}
	if n > 0 {
		// Persist the replayed state — including catalog updates rebuilt
		// from deltas (BeforeCheckpoint flushes them) — before the log that
		// could rebuild it again is discarded.
		if m.BeforeCheckpoint != nil {
			if err := m.BeforeCheckpoint(); err != nil {
				return n, err
			}
		}
		if err := m.file.Sync(); err != nil {
			return n, err
		}
	}
	return n, m.log.Truncate()
}
