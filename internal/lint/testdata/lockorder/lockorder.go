// Fixture for the lockorder analyzer. The test configures its own lock
// table over these types: Catalog.mu (level 10) → Engine.mu (level 20) →
// Pager.stripes (level 50), mirroring the engine's hierarchy.
package lockorder

import "sync"

type Catalog struct{ mu sync.Mutex }
type Engine struct{ mu sync.RWMutex }
type Pager struct{ stripes [8]sync.RWMutex }

// Near-miss: acquisitions in hierarchy order.
func ordered(c *Catalog, e *Engine) {
	c.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	c.mu.Unlock()
}

// Positive: the catalog lock is below the engine lock in the hierarchy.
func inverted(c *Catalog, e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c.mu.Lock() // want `lock order violation`
	c.mu.Unlock()
}

// Positive: Go mutexes self-deadlock on re-entry.
func reentrant(c *Catalog) {
	c.mu.Lock()
	c.mu.Lock() // want `re-entrant acquisition`
	c.mu.Unlock()
	c.mu.Unlock()
}

// Positive: stripe locks are matched through the local-alias idiom.
func stripeAlias(p *Pager, e *Engine, i int) {
	lk := &p.stripes[i]
	lk.Lock()
	e.mu.Lock() // want `lock order violation`
	e.mu.Unlock()
	lk.Unlock()
}

// Near-miss: a read lock on a stripe, deferred unlock.
func stripeOK(p *Pager, i int) int {
	lk := &p.stripes[i]
	lk.RLock()
	defer lk.RUnlock()
	return i
}

// Near-miss: sequential (released before the lower level is taken) is not
// out of order.
func sequential(c *Catalog, e *Engine) {
	e.mu.Lock()
	e.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// Near-miss: a goroutine starts with an empty lock set.
func spawn(c *Catalog, e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() {
		c.mu.Lock()
		c.mu.Unlock()
	}()
}

// Suppressed: a documented exception.
func startup(c *Catalog, e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow lockorder startup path is single-threaded by construction
	c.mu.Lock()
	c.mu.Unlock()
}

// Merger mirrors the compaction worker pool: the engine's merge registry
// (level 22) publishes the pool, the pool's queue lock (level 24) hands
// tables to workers.
type Merger struct{ mu sync.Mutex }

type MergeEngine struct{ mergeMu sync.Mutex }

// Near-miss: the worker pattern — registry consulted and released, then the
// queue lock taken, released across the fold, retaken for bookkeeping.
func workerLoop(e *MergeEngine, m *Merger) {
	e.mergeMu.Lock()
	e.mergeMu.Unlock()
	m.mu.Lock()
	m.mu.Unlock()
	// ... fold runs without either lock held ...
	m.mu.Lock()
	m.mu.Unlock()
}

// Positive: consulting the registry while holding the queue lock inverts
// the hierarchy (and would deadlock against EnableAutoMerge's replace).
func queueThenRegistry(e *MergeEngine, m *Merger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.mergeMu.Lock() // want `lock order violation`
	e.mergeMu.Unlock()
}

// Positive: a worker re-entering its own queue lock self-deadlocks.
func workerReentry(m *Merger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mu.Lock() // want `re-entrant acquisition`
	m.mu.Unlock()
}

// The read-modify-write discipline: Catalog.Get … Catalog.Put is only sound
// inside the region RMWEngine.withLock brackets. Every Catalog call locks
// its own mutex, so neither the hierarchy above nor the race detector sees
// an update lost between the two.
type Record struct{ Tails int }

func (c *Catalog) Get(name string) *Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Record{}
}

func (c *Catalog) Put(r *Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
}

func (c *Catalog) PutBuffered(r *Record) uint64 { c.Put(r); return 1 }

type RMWEngine struct{ cat *Catalog }

func (e *RMWEngine) withLock(name string, fn func() error) error { return fn() }

// Near-miss: the whole read-modify-write runs inside the guard.
func (e *RMWEngine) appendGuarded(name string) error {
	return e.withLock(name, func() error {
		work := *e.cat.Get(name)
		work.Tails++
		e.cat.Put(&work)
		return nil
	})
}

// Near-miss: a helper whose every caller is inside the guard inherits it
// (the publishTail shape), including through a second helper.
func (e *RMWEngine) publish(name string) {
	work := *e.cat.Get(name)
	work.Tails++
	e.cat.PutBuffered(&work)
}

func (e *RMWEngine) publishTwice(name string) {
	e.publish(name)
	e.publish(name)
}

func (e *RMWEngine) insert(name string) error {
	return e.withLock(name, func() error {
		e.publishTwice(name)
		return nil
	})
}

// Near-miss: a blind write reads nothing it could lose.
func (e *RMWEngine) create(name string) {
	e.cat.Put(&Record{})
}

// Positive: the fold path of a lock-less engine — exactly the lost update
// that let a background merge drop a concurrent insert's tail batches.
func (e *RMWEngine) foldUnguarded(name string) {
	work := *e.cat.Get(name)
	work.Tails = 0
	e.cat.Put(&work) // want `read-modify-write outside withLock`
}

// Positive: one unguarded caller strips a helper of the guard its other
// callers give it.
func (e *RMWEngine) compact(name string) {
	work := *e.cat.Get(name)
	work.Tails = 0
	e.cat.Put(&work) // want `read-modify-write outside withLock`
}

func (e *RMWEngine) compactGuarded(name string) error {
	return e.withLock(name, func() error {
		e.compact(name)
		return nil
	})
}

func (e *RMWEngine) mergeWorker(name string) {
	e.compact(name)
}

// Positive: a goroutine started inside the guard outlives it.
func (e *RMWEngine) spawnInsideGuard(name string) error {
	return e.withLock(name, func() error {
		go func() {
			work := *e.cat.Get(name)
			e.cat.PutBuffered(&work) // want `read-modify-write outside withLock`
		}()
		return nil
	})
}
