package table

// Version pins. A table's catalog record is a version of the table: every
// change to it is a copy-on-write Put of a whole record, and the parts a
// record names are immutable once written. What a version needs besides is a
// lifetime, so that nothing frees a part while someone still reads it. A
// cursor pins the version its plan was made from, under the table lock the
// plan was made under, and releases the pin when it is exhausted or closed;
// a fold pins the version it reads until its splice has landed.
//
// Every extent a flip or Drop supersedes goes into one queue and is freed
// once two predicates hold:
//
//	durable   the checkpoint that made the update durable has run
//	unpinned  no pin older than the update remains
//
// Versions are numbered by an engine-wide epoch that every queueing bumps.
// A pin records the epoch current when it was taken; an extent queued at
// epoch E waits for every pin below E. A pin taken after the update, at E or
// later, read the record that no longer names the extent, so it holds
// nothing back.

import (
	"runtime"
	"sync"

	"rodentstore/internal/pager"
)

// pendingFree is a superseded extent waiting in the free queue.
type pendingFree struct {
	ext pager.Extent
	// epoch is the version of the update that superseded ext: pins below
	// it may still read ext. The catalog's own old extents carry 0; no
	// cursor reads them.
	epoch uint64
}

// versions is an engine's pin state and its free queue.
type versions struct {
	file *pager.File

	mu    sync.Mutex
	epoch uint64
	pins  map[uint64]int // live pins by the epoch they were taken at
	// waiting extents were queued since the last checkpoint began; staged
	// ones are covered by the checkpoint in progress; ready ones are durably
	// unreferenced and wait on pins alone.
	waiting, staged, ready []pendingFree
	// flushing is set while a checkpoint flushes the catalog (stage).
	flushing bool
	// queuedPages counts the table pages queued since the last checkpoint
	// began (backlog). The catalog's own old extent is left out: every
	// checkpoint's flush queues one again, so counting it could make each
	// commit due for a checkpoint.
	queuedPages uint64
}

func newVersions(file *pager.File) *versions {
	return &versions{file: file, pins: make(map[uint64]int)}
}

// versionPin holds back the frees of every update made after it was taken.
type versionPin struct {
	v     *versions
	epoch uint64
}

// pin pins the current version. The caller must hold the lock that keeps
// the record it read current (a table lock), or have read it after pinning.
func (v *versions) pin() *versionPin {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pins[v.epoch]++
	return &versionPin{v: v, epoch: v.epoch}
}

// drop releases the pin without freeing what it held back: that waits for
// the next release, flip or checkpoint. It is what a cursor collected
// without Close runs (runtime.AddCleanup), off any engine goroutine.
func (p *versionPin) drop() {
	p.v.mu.Lock()
	p.v.unpinLocked(p.epoch)
	p.v.mu.Unlock()
}

// release drops the pin and frees whatever it was the last to hold back.
// A failed free stays queued for the next try.
func (p *versionPin) release() {
	v := p.v
	v.mu.Lock()
	v.unpinLocked(p.epoch)
	now := v.takeReadyLocked()
	v.mu.Unlock()
	_ = v.free(now)
}

func (v *versions) unpinLocked(epoch uint64) {
	if v.pins[epoch]--; v.pins[epoch] == 0 {
		delete(v.pins, epoch)
	}
}

// queue puts the extents an update just superseded into the free queue,
// behind the next checkpoint. Callers queue after publishing the update, so
// every pin taken from here on read the new record.
func (v *versions) queue(exts []pager.Extent) {
	v.mu.Lock()
	v.epoch++
	for _, ext := range exts {
		v.waiting = append(v.waiting, pendingFree{ext: ext, epoch: v.epoch})
		v.queuedPages += ext.Count
	}
	v.mu.Unlock()
}

// queueCatalog queues a catalog extent a flush replaced (the catalog's
// DeferFree hook): it waits for a checkpoint's sync but on no pin.
func (v *versions) queueCatalog(ext pager.Extent) {
	f := pendingFree{ext: ext}
	v.mu.Lock()
	if v.flushing {
		v.staged = append(v.staged, f)
	} else {
		v.waiting = append(v.waiting, f)
	}
	v.mu.Unlock()
}

// stage moves everything queued so far behind the checkpoint that is about
// to flush the catalog (their updates are in that flush), then runs the
// flush. A catalog extent replaced while it runs — by that flush, or by a
// DDL flush it waited for — is staged too: the header that stopped naming
// it is written before the checkpoint's sync.
func (v *versions) stage(flush func() error) error {
	v.mu.Lock()
	v.staged = append(v.staged, v.waiting...)
	v.waiting, v.queuedPages = nil, 0
	v.flushing = true
	v.mu.Unlock()
	err := flush()
	v.mu.Lock()
	v.flushing = false
	v.mu.Unlock()
	return err
}

// checkpointed marks what stage staged as durably unreferenced and frees
// what no pin holds back (the Manager's AfterCheckpoint hook).
func (v *versions) checkpointed() error {
	v.mu.Lock()
	v.ready = append(v.ready, v.staged...)
	v.staged = nil
	v.mu.Unlock()
	return v.freeReady()
}

// backlog reports the bytes of the table extents queued since the last
// checkpoint began.
func (v *versions) backlog() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int64(v.queuedPages) * int64(v.file.PageSize())
}

// freeReady frees the ready extents no live pin is older than.
func (v *versions) freeReady() error {
	v.mu.Lock()
	now := v.takeReadyLocked()
	v.mu.Unlock()
	return v.free(now)
}

// takeReadyLocked removes from the ready list, and returns, the extents no
// live pin is older than. Caller holds v.mu.
func (v *versions) takeReadyLocked() []pendingFree {
	if len(v.ready) == 0 {
		return nil
	}
	oldest, held := uint64(0), false
	for e := range v.pins {
		if !held || e < oldest {
			oldest, held = e, true
		}
	}
	var now []pendingFree
	kept := v.ready[:0]
	for _, f := range v.ready {
		if !held || f.epoch <= oldest {
			now = append(now, f)
		} else {
			kept = append(kept, f)
		}
	}
	clear(v.ready[len(kept):])
	v.ready = kept
	return now
}

// free returns taken extents to the pager. A failed free puts it and the
// rest back on the ready list: freeing is retried later, and losing track
// would leak the pages for good.
func (v *versions) free(now []pendingFree) error {
	for i, f := range now {
		if err := v.file.FreeRun(f.ext.Start, f.ext.Count); err != nil {
			v.mu.Lock()
			v.ready = append(v.ready, now[i:]...)
			v.mu.Unlock()
			return err
		}
	}
	return nil
}

// pinCursor pins the version c's plan was made from and arranges for a
// cursor dropped without Close to release it when collected.
func (c *Cursor) pinCursor(v *versions) {
	c.pin = v.pin()
	c.unpinGC = runtime.AddCleanup(c, (*versionPin).drop, c.pin)
}

// unpin releases the cursor's pin, once: at exhaustion, at an error that
// ends the stream, or at Close.
func (c *Cursor) unpin() {
	if c.pin == nil {
		return
	}
	c.unpinGC.Stop()
	c.pin.release()
	c.pin = nil
}
