// Fixture for the leaselease analyzer: buffer leases and page leases must
// be released on every path. This package type-checks but is never run.
package leaselease

import (
	"errors"

	"rodentstore/internal/buffer"
	"rodentstore/internal/pager"
)

var errEmpty = errors.New("empty")

// Positive: the lease is never released on the success path.
func leak(pool *buffer.Pool, id pager.PageID) []byte {
	l, err := pool.Lease(id) // want `buffer lease may not be released`
	if err != nil {
		return nil
	}
	return l.Data()
}

// Positive: released on the happy path, leaked on the early error return.
func leakOnError(pool *buffer.Pool, id pager.PageID) ([]byte, error) {
	l, err := pool.Lease(id) // want `buffer lease may not be released`
	if err != nil {
		return nil, err
	}
	data := append([]byte(nil), l.Data()...)
	if len(data) == 0 {
		return nil, errEmpty // forgot l.Release()
	}
	if rerr := l.Release(); rerr != nil {
		return nil, rerr
	}
	return data, nil
}

// Positive: the lease is discarded outright.
func discard(pool *buffer.Pool, id pager.PageID) error {
	_, err := pool.Lease(id) // want `buffer lease is discarded`
	return err
}

// Positive: a page lease's release func is called on one path only.
func leakRelease(pool *buffer.Pool, id pager.PageID) []byte {
	data, release, err := pool.LeasePage(id) // want `page lease \(release func\) may not be released`
	if err != nil {
		return nil
	}
	if len(data) > 0 {
		_ = release()
		return data
	}
	return nil // release never called here
}

// Near-miss: deferred release covers every path.
func deferRelease(pool *buffer.Pool, id pager.PageID) []byte {
	l, err := pool.Lease(id)
	if err != nil {
		return nil
	}
	defer l.Release()
	return append([]byte(nil), l.Data()...)
}

// Near-miss: the error guard exempts the failure path; the success path
// releases with an error check.
func checkedRelease(pool *buffer.Pool, id pager.PageID) (int, error) {
	data, release, err := pool.LeasePage(id)
	if err != nil {
		return 0, err
	}
	n := len(data)
	if rerr := release(); rerr != nil {
		return 0, rerr
	}
	return n, nil
}

// Near-miss: ownership transfers to the caller through the return.
func acquire(pool *buffer.Pool, id pager.PageID) (buffer.Lease, error) {
	l, err := pool.Lease(id)
	return l, err
}

// Near-miss: ownership transfers by passing the lease to a call.
func handoff(pool *buffer.Pool, id pager.PageID) error {
	l, err := pool.Lease(id)
	if err != nil {
		return err
	}
	return consume(l)
}

func consume(l buffer.Lease) error { return l.Release() }

// Near-miss: the release obligation is returned as a method value — the
// shape of buffer.Pool.LeasePage itself.
func leaseBytes(pool *buffer.Pool, id pager.PageID) ([]byte, func() error, error) {
	l, err := pool.Lease(id)
	if err != nil {
		return nil, nil, err
	}
	return l.Data(), l.Release, nil
}

// Suppressed: an intentional pin-transfer, annotated with the reason.
func pinned(pool *buffer.Pool, id pager.PageID) []byte {
	//lint:allow leaselease pin is transferred to the caller, released via Pool.Unpin
	l, err := pool.Lease(id)
	if err != nil {
		return nil
	}
	return l.Data()
}

// runFetch and runPrefetcher mirror the scan prefetcher's run-buffer
// handoff: LeaseRun returns the fetched run plus a release func() error that
// recycles the buffers, the same obligation shape as LeasePage.
type runFetch struct{ data []byte }

type runPrefetcher struct{}

func (*runPrefetcher) LeaseRun() (runFetch, func() error, error) {
	return runFetch{}, func() error { return nil }, nil
}

// Positive: the run lease's release func is dropped on the early return.
func leakRunLease(pf *runPrefetcher) []byte {
	rf, release, err := pf.LeaseRun() // want `run lease \(release func\) may not be released`
	if err != nil {
		return nil
	}
	if len(rf.data) == 0 {
		return nil // forgot release()
	}
	_ = release()
	return rf.data
}

// Positive: the release obligation is discarded outright.
func discardRunLease(pf *runPrefetcher) ([]byte, error) {
	rf, _, err := pf.LeaseRun() // want `run lease \(release func\) is discarded`
	return rf.data, err
}

// Near-miss: stored into a struct field — ownership transfers to the holder
// (the runLoader shape: a block executor's loader releases the previous
// lease when the next run is adopted and when the executor closes).
type runHolder struct{ release func() error }

func storeRunLease(pf *runPrefetcher, h *runHolder) error {
	rf, release, err := pf.LeaseRun()
	if err != nil {
		return err
	}
	h.release = release
	_ = rf.data
	return nil
}

// Near-miss: released on every path, with the error checked.
func checkedRunLease(pf *runPrefetcher) (int, error) {
	rf, release, err := pf.LeaseRun()
	if err != nil {
		return 0, err
	}
	n := len(rf.data)
	if rerr := release(); rerr != nil {
		return 0, rerr
	}
	return n, nil
}

// Leveled-storage readers walk a table's run hierarchy part by part; each
// run's blocks are leased from the pool, so a scan loop carries one open
// obligation per run. These fixtures pin the per-run shapes.

// Positive: the per-run lease leaks when the loop exits early on a
// predicate hit — the obligation from the current iteration is never
// released.
func leakPerRunLease(pool *buffer.Pool, runs []pager.PageID) []byte {
	for _, id := range runs {
		l, err := pool.Lease(id) // want `buffer lease may not be released`
		if err != nil {
			return nil
		}
		if len(l.Data()) > 0 {
			return l.Data() // forgot l.Release() before returning
		}
		_ = l.Release()
	}
	return nil
}

// Positive: the run's release func is dropped when a later run in the same
// iteration fails.
func leakRunOnNextError(pf *runPrefetcher, n int) error {
	for i := 0; i < n; i++ {
		rf, release, err := pf.LeaseRun() // want `run lease \(release func\) may not be released`
		if err != nil {
			return err
		}
		if len(rf.data) == 0 {
			return errEmpty // forgot release()
		}
		_ = release()
	}
	return nil
}

// Near-miss: the idiomatic per-run reader — every iteration releases its
// lease before the next run is fetched, and the early exit releases first.
func mergeRunsReleased(pool *buffer.Pool, runs []pager.PageID) ([]byte, error) {
	var out []byte
	for _, id := range runs {
		l, err := pool.Lease(id)
		if err != nil {
			return nil, err
		}
		out = append(out, l.Data()...)
		if rerr := l.Release(); rerr != nil {
			return nil, rerr
		}
	}
	return out, nil
}

// Near-miss: a deferred release covers every exit of the per-run closure,
// the shape the block stage's load closure has inside blockExec.run.
func perRunClosure(pool *buffer.Pool, runs []pager.PageID) error {
	for _, id := range runs {
		err := func() error {
			l, err := pool.Lease(id)
			if err != nil {
				return err
			}
			defer l.Release()
			if len(l.Data()) == 0 {
				return errEmpty
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// The single block stage: one executor per goroutine owns the loader that
// holds the adopted run's lease, and the executor's close is the last
// release point. These fixtures pin that ownership shape.
type blockStage struct{ loader runHolder }

// Near-miss: entering a run parks the new lease in the executor's loader
// after releasing the one it replaces (runLoader.enter under blockExec.run).
func (x *blockStage) enter(pf *runPrefetcher) error {
	_, release, err := pf.LeaseRun()
	if err != nil {
		return err
	}
	if x.loader.release != nil {
		_ = x.loader.release()
	}
	x.loader.release = release
	return nil
}

// Positive: the stage takes a lease for a block it then decides to skip
// (a quarantined block) and forgets to give it back.
func (x *blockStage) enterSkipping(pf *runPrefetcher, skip bool) error {
	_, release, err := pf.LeaseRun() // want `run lease \(release func\) may not be released`
	if err != nil {
		return err
	}
	if skip {
		return nil // forgot release()
	}
	x.loader.release = release
	return nil
}
