package bench

import "testing"

func TestAggThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig(t)
	results, err := AggThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 aggregate shapes × selectivities × (serial, parallel).
	want := 4 * len(AggSelectivities) * 2
	if len(results) != want {
		t.Fatalf("results: %d, want %d", len(results), want)
	}
	for i := 0; i < len(results); i += 2 {
		serial, par := results[i], results[i+1]
		if serial.Mode != "serial" || par.Mode != "parallel" {
			t.Fatalf("pair %d: mode order %s/%s", i, serial.Mode, par.Mode)
		}
		// The two executors are differential twins: same group count.
		if serial.Groups != par.Groups {
			t.Errorf("%s: groups %d/%d diverge", serial.Agg, serial.Groups, par.Groups)
		}
		if serial.Rows != int64(cfg.N) {
			t.Errorf("%s: scanned %d rows, want %d", serial.Name, serial.Rows, cfg.N)
		}
		if serial.RowsPerSec <= 0 || par.ParallelSpeedup <= 0 {
			t.Errorf("%s: rate %v, parallel speedup %v", serial.Agg, serial.RowsPerSec, par.ParallelSpeedup)
		}
		if par.Gomaxprocs < 1 {
			t.Errorf("%s: parallel run did not record GOMAXPROCS", par.Name)
		}
		if serial.Agg == "group-by" && serial.Groups != 64 {
			t.Errorf("group-by groups: %d, want 64", serial.Groups)
		}
		if serial.Agg != "group-by" && serial.Groups != 1 {
			t.Errorf("%s groups: %d, want 1", serial.Agg, serial.Groups)
		}
	}
}
