package torture

import (
	"flag"
	"testing"
)

// tortureOps is tunable so CI can run a longer campaign:
//
//	go test ./internal/torture -run TestTorture -torture.ops=3000
var tortureOps = flag.Int("torture.ops", 120, "workload operations per torture run")

// TestTorture runs the randomized crash-consistency campaign: every write
// and sync point is a simulated power cut, recovered and verified against
// the committed-state model.
func TestTorture(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		st, err := Run(Config{Ops: *tortureOps, Seed: seed})
		t.Logf("seed %d: %d ops (%d inserts, %d reorgs, %d compacts, %d alters, %d drops, %d ckpts, %d scans, %d index builds), %d crashes, %d kill points",
			seed, st.Ops, st.Inserts, st.Reorgs, st.Compacts, st.Alters, st.Drops, st.Checkpoints, st.Scans, st.Indexes, st.Crashes, st.KillPoints)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.KillPoints == 0 {
			t.Fatalf("seed %d: no kill point exercised", seed)
		}
		if st.Compacts == 0 || st.Alters == 0 || st.Indexes == 0 {
			t.Fatalf("seed %d: %d compaction, %d alter and %d index-build ops exercised, want some of each", seed, st.Compacts, st.Alters, st.Indexes)
		}
	}
}
