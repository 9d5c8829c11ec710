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

// Manager makes applied page writes durable over one page file and one log.
type Manager struct {
	file    *pager.File
	log     *wal.Log
	nextTxn atomic.Uint64 // ids of logged record groups

	// CheckpointBytes triggers a checkpoint when the log grows past it
	// (0 disables the trigger). Checkpoints run opportunistically after a
	// commit has already acknowledged, never on the commit's durability path.
	CheckpointBytes int64

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
	// (wal.RecCatalog payload) during Recover, in log order. The engine
	// hooks the catalog's ApplyTailAppend here. Set it before Recover.
	OnRecoverCatalog func([]byte) error

	// ckptMu orders checkpoints against in-flight commits: LogAppliedSince
	// holds the read side from its barrier check to its last log append, so
	// a checkpoint (write side) never truncates half a record group or lets
	// a barrier slip between the check and the append.
	ckptMu sync.RWMutex

	// barrier counts CheckpointBarrier runs — checkpoints taken because
	// extents are about to be freed. A bulk writer captures Barrier while
	// its pages cannot yet have been freed (it still holds the lock that
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
// first, so a stale image cannot be replayed over the new content after a
// crash.
func (m *Manager) LogApplied(images []PageImage, catalogDelta []byte) error {
	return m.LogAppliedSince(m.barrier.Load(), images, catalogDelta)
}

// LogAppliedSince is LogApplied guarded by the free barrier: barrier is the
// Barrier() value the caller captured while it still held the lock that
// orders it against extent frees. If a CheckpointBarrier has run since,
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
	return m.maybeCheckpoint()
}

// maybeCheckpoint runs a checkpoint if the log has outgrown CheckpointBytes
// and no other checkpoint or commit is in the way (contended attempts are
// skipped — the trigger fires again on a later commit).
func (m *Manager) maybeCheckpoint() error {
	if m.CheckpointBytes <= 0 || m.log.Size() < m.CheckpointBytes {
		return nil
	}
	if !m.ckptMu.TryLock() {
		return nil
	}
	defer m.ckptMu.Unlock()
	return m.checkpointLocked()
}

// Recover replays committed record groups from the log into the page file
// (catalog deltas go to OnRecoverCatalog) and truncates the log. It must
// run before the first commit, with both hooks already set.
func (m *Manager) Recover() (int, error) {
	n, err := m.log.RecoverFull(func(id pager.PageID, img []byte) error {
		// RecoverPage, not WritePage: the stale header's allocation state
		// may not cover WAL-logged pages yet (the cursor and free list are
		// only durable as of the last checkpoint).
		return m.file.RecoverPage(id, img)
	}, m.OnRecoverCatalog)
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
