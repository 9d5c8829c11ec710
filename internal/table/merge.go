package table

import (
	"errors"
	"sync"

	"rodentstore/internal/catalog"
)

// Background tail merging (paper §5's "reorganize only new data", run off
// the ingest path). Insert appends unorganized tail batches; when a table
// accumulates enough of them the engine's merge workers fold the tails —
// into the main rendering for plain layouts (Engine.Reorganize), or into
// the run hierarchy for layouts with a compaction policy (Engine.Compact,
// which folds one level at a time instead of rewriting the table). The
// worker pool lets compactions of different tables proceed concurrently;
// per table, the inflight set keeps folds serialized (and the table's fold
// latch does for explicit calls). A fold holds the table lock only for its
// splice, so inserts and scans of the table run beside it.
//
// The pool is opt-in (EnableAutoMerge); without it the synchronous path —
// calling Reorganize or Compact explicitly — is unchanged, which is what
// the paper experiments use.

// defaultMaxTails keeps read amplification bounded without merging on every
// insert.
const defaultMaxTails = 8

// defaultMergeWorkers sizes the pool: enough to keep a few tables' merges
// overlapping without competing with query threads for the whole machine.
// A single table's merges always serialize on its fold latch.
const defaultMergeWorkers = 4

// merger is the engine-owned background worker pool. Tables are enqueued at
// most once; a worker takes the oldest queued table that no other worker is
// already folding.
type merger struct {
	e        *Engine
	maxTails int
	wg       sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string
	queued   map[string]bool
	inflight map[string]bool
	pending  int // enqueued + in-flight merges (WaitMerges barrier)
	stopped  bool
	lastErr  error
}

// EnableAutoMerge starts the background merge pool: a table is queued for a
// fold once it has accumulated maxTails tail batches (<= 0 means
// defaultMaxTails). Tables whose layout carries a compaction directive
// ignore maxTails: their level-0 fold triggers at the policy's own fanout.
// Calling it again replaces the threshold, stopping and restarting the pool.
func (e *Engine) EnableAutoMerge(maxTails int) {
	if maxTails <= 0 {
		maxTails = defaultMaxTails
	}
	e.DisableAutoMerge()
	m := &merger{
		e: e, maxTails: maxTails,
		queued: make(map[string]bool), inflight: make(map[string]bool),
	}
	m.cond = sync.NewCond(&m.mu)
	e.mergeMu.Lock()
	e.merge = m
	e.mergeMu.Unlock()
	m.wg.Add(defaultMergeWorkers)
	for i := 0; i < defaultMergeWorkers; i++ {
		go m.worker()
	}
}

// DisableAutoMerge stops the merge pool, draining any queued merges first.
// No-op when auto merge is off.
func (e *Engine) DisableAutoMerge() {
	e.mergeMu.Lock()
	m := e.merge
	e.merge = nil
	e.mergeMu.Unlock()
	if m == nil {
		return
	}
	m.mu.Lock()
	m.stopped = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// WaitMerges blocks until every merge enqueued so far has completed. It is
// a measurement/test barrier; production inserters never wait.
func (e *Engine) WaitMerges() {
	e.mergeMu.Lock()
	m := e.merge
	e.mergeMu.Unlock()
	if m == nil {
		return
	}
	m.mu.Lock()
	for m.pending > 0 {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// MergeErr returns the most recent background merge failure, if any.
// Inserts never fail because a merge did; errors surface here. A table
// dropped while queued is not a failure (see worker).
func (e *Engine) MergeErr() error {
	e.mergeMu.Lock()
	m := e.merge
	e.mergeMu.Unlock()
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// mergeTrigger reports whether a table that now has this many tail batches
// should be queued for a background fold: at the pool's threshold, or — for
// a layout with a compaction policy — at the policy's fanout. Always false
// while no pool is running.
func (e *Engine) mergeTrigger(tails int, layoutExpr string) bool {
	e.mergeMu.Lock()
	m := e.merge
	e.mergeMu.Unlock()
	if m == nil {
		return false
	}
	if spec, err := e.compile(layoutExpr); err == nil && spec.Compaction != nil {
		return tails >= spec.Compaction.Fanout
	}
	return tails >= m.maxTails
}

// maybeAutoMerge enqueues the table for a background merge. Called by
// Insert after its publish phase observed the policy trigger.
func (e *Engine) maybeAutoMerge(name string, trigger bool) {
	if !trigger {
		return
	}
	e.mergeMu.Lock()
	m := e.merge
	e.mergeMu.Unlock()
	if m == nil {
		return
	}
	m.enqueue(name)
}

func (m *merger) enqueue(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped || m.queued[name] {
		return
	}
	m.queued[name] = true
	m.queue = append(m.queue, name)
	m.pending++
	m.cond.Broadcast()
}

// takeLocked pops the oldest queued table no other worker is folding and
// marks it inflight. Caller holds m.mu.
func (m *merger) takeLocked() (string, bool) {
	for i, name := range m.queue {
		if m.inflight[name] {
			continue
		}
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		delete(m.queued, name)
		m.inflight[name] = true
		return name, true
	}
	return "", false
}

func (m *merger) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		name, ok := m.takeLocked()
		for !ok {
			if m.stopped && len(m.queue) == 0 {
				m.mu.Unlock()
				return
			}
			m.cond.Wait()
			name, ok = m.takeLocked()
		}
		m.mu.Unlock()

		// Compact folds leveled-storage tables incrementally and falls back
		// to a full Reorganize for plain layouts.
		err := m.e.Compact(name)

		m.mu.Lock()
		delete(m.inflight, name)
		if err != nil && !errors.Is(err, catalog.ErrNotFound) {
			// A table dropped while queued (or mid-dequeue) is a benign
			// no-op, not a failure worth latching.
			m.lastErr = err
		}
		m.pending--
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}
