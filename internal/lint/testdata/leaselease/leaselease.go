// Fixture for the leaselease analyzer: buffer leases must be released on
// every path. This package type-checks but is never run.
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

// Near-miss: deferred release covers every path.
func deferRelease(pool *buffer.Pool, id pager.PageID) []byte {
	l, err := pool.Lease(id)
	if err != nil {
		return nil
	}
	defer l.Release()
	return append([]byte(nil), l.Data()...)
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

// Near-miss: the release obligation is returned as a method value.
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
