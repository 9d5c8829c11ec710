package table

import (
	"runtime"
	"testing"
)

// TestTableLockBoundsReaderBypass pins the table lock's admission rule:
// readers overtake a waiting writer (so a scan never queues behind a fold
// that is itself still waiting) but only maxReaderBypass times — after that
// a new reader waits for the writer, so readers that never leave a gap
// cannot starve it.
func TestTableLockBoundsReaderBypass(t *testing.T) {
	var l tableLock
	l.free.L = &l.mu
	l.acquire(false) // one reader in, so the writer below has to wait

	wrote := make(chan struct{})
	go func() {
		l.acquire(true)
		close(wrote)
		l.release(true)
	}()
	for waiting := 0; waiting == 0; runtime.Gosched() {
		l.mu.Lock()
		waiting = l.waiting
		l.mu.Unlock()
	}
	// Overlapping readers: a new one is admitted before the previous one
	// leaves, so the writer never sees a gap. Every one of these must get in
	// without blocking.
	for i := 0; i < maxReaderBypass; i++ {
		l.acquire(false)
		l.release(false)
	}
	// The next reader is past the bound: it must not get in before the writer.
	sawWrite := make(chan bool)
	go func() {
		l.acquire(false)
		select {
		case <-wrote:
			sawWrite <- true
		default:
			sawWrite <- false
		}
		l.release(false)
	}()
	runtime.Gosched()
	l.release(false) // the last reader leaves: the writer's gap
	if !<-sawWrite {
		t.Fatal("a reader past the bypass bound overtook the waiting writer")
	}
}
