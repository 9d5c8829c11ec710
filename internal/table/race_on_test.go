//go:build race

package table

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// is Put and allocation counts over pooled batches mean nothing.
const raceEnabled = true
