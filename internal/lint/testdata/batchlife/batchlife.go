// Fixture for the batchlife analyzer: pooled batches flow to exactly one of
// recycle or consumer, and are never touched after recycle.
package batchlife

import (
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Positive: leaked on the early return, recycled on the long path.
func leakOnSkip(pool *vec.Pool, schema *value.Schema, skip bool) int {
	b := pool.Get(schema) // want `pooled batch may not be released`
	if skip {
		return 0
	}
	n := b.Len()
	pool.Put(b)
	return n
}

// Positive: referenced after being handed back to the pool.
func useAfterPut(pool *vec.Pool, schema *value.Schema) int {
	b := pool.Get(schema)
	pool.Put(b)
	return b.Len() // want `used after being recycled`
}

// Positive: recycled twice (the second Put is a use of a recycled batch).
func doublePut(pool *vec.Pool, schema *value.Schema) {
	b := pool.Get(schema)
	pool.Put(b)
	pool.Put(b) // want `used after being recycled`
}

// Positive: a same-package helper that hands back a pooled batch propagates
// the obligation to its caller.
func decode(pool *vec.Pool, schema *value.Schema) (*vec.Batch, error) {
	return pool.Get(schema), nil
}

func leakFromHelper(pool *vec.Pool, schema *value.Schema, cond bool) error {
	b, err := decode(pool, schema) // want `pooled batch may not be released`
	if err != nil {
		return err
	}
	if cond {
		return nil
	}
	pool.Put(b)
	return nil
}

// Near-miss: deferred recycle covers every path, and uses between the defer
// statement and the return are fine (the Put runs last).
func deferPut(pool *vec.Pool, schema *value.Schema) int {
	b := pool.Get(schema)
	defer pool.Put(b)
	return b.Len()
}

// Near-miss: reassignment ends the recycled region.
func reuseVar(pool *vec.Pool, schema *value.Schema) int {
	b := pool.Get(schema)
	pool.Put(b)
	b = pool.Get(schema)
	n := b.Len()
	pool.Put(b)
	return n
}

// Near-miss: the batch transfers to the consumer through the return.
func produce(pool *vec.Pool, schema *value.Schema) *vec.Batch {
	b := pool.Get(schema)
	return b
}

// Near-miss: stored into a longer-lived owner (a cursor keeps the batch).
type cursor struct{ batch *vec.Batch }

func stash(pool *vec.Pool, schema *value.Schema, c *cursor) {
	b := pool.Get(schema)
	c.batch = b
}

// Suppressed: ownership intentionally parked, annotated with the reason.
func parked(pool *vec.Pool, schema *value.Schema) int {
	//lint:allow batchlife batch is owned by the registry until shutdown
	b := pool.Get(schema)
	return b.Len()
}

// The single block stage: blockExec.run turns one block into a result value
// that carries the decoded batch to whichever sink consumes it (cursor,
// morsel promise, aggregate fold). These fixtures pin the handoff shapes.
type blockResult struct {
	batch *vec.Batch
	err   error
}

// Near-miss: the stage decodes straight into the result it returns.
func runStage(pool *vec.Pool, schema *value.Schema) blockResult {
	var r blockResult
	r.batch, r.err = decode(pool, schema)
	return r
}

// Near-miss: the sink adopts a result's batch and recycles the one it
// replaces (Cursor.advance).
func (c *cursor) adopt(pool *vec.Pool, res blockResult) {
	if res.batch != nil {
		pool.Put(c.batch)
		c.batch = res.batch
	}
}

// Positive: a stage that decides to skip the block after decoding it must
// recycle the batch, not drop it with the result.
func runStageSkip(pool *vec.Pool, schema *value.Schema, skip bool) blockResult {
	b, err := decode(pool, schema) // want `pooled batch may not be released`
	if err != nil {
		return blockResult{err: err}
	}
	if skip {
		return blockResult{}
	}
	return blockResult{batch: b}
}
