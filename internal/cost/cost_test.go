package cost

import (
	"testing"
	"testing/quick"
)

func TestDefaultModelMs(t *testing.T) {
	m := DefaultModel()
	// One seek dominates small sequential reads (the premise behind
	// z-ordering's seek reduction).
	oneSeek := m.Ms(Estimate{Pages: 1, Seeks: 1})
	manyPages := m.Ms(Estimate{Pages: 100, Seeks: 0})
	if oneSeek < manyPages {
		t.Errorf("a seek (%f ms) should cost more than 100 sequential pages (%f ms)", oneSeek, manyPages)
	}
	if got := m.Ms(Estimate{}); got != 0 {
		t.Errorf("empty estimate: %f", got)
	}
}

func TestMsMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(pages, seeks uint16, rows uint16) bool {
		base := m.Ms(Estimate{Pages: uint64(pages), Seeks: uint64(seeks), Rows: int64(rows)})
		more := m.Ms(Estimate{Pages: uint64(pages) + 1, Seeks: uint64(seeks) + 1, Rows: int64(rows) + 1})
		return more > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
