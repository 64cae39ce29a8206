package speedbench

import "testing"

// TestRunShape runs a miniature sweep and checks the report's structure:
// every (engine, workload, cores) cell present with fixed-work-consistent
// counters, every speedup cell carrying one ratio per round. The real
// numbers come from cmd/gstm-loadgen -sweep speed; this keeps the
// harness itself race-clean and honest.
func TestRunShape(t *testing.T) {
	cfg := Config{
		Cores:      []int{1, 2},
		Cells:      256,
		TxnsPerRun: 800,
		Runs:       2,
	}
	rep := Run(cfg)

	if want := 2 * 3 * len(cfg.Cores); len(rep.Points) != want {
		t.Fatalf("points = %d, want %d", len(rep.Points), want)
	}
	for _, pt := range rep.Points {
		if len(pt.Runs) != cfg.Runs {
			t.Errorf("%s/%s/%d: %d runs, want %d", pt.Engine, pt.Workload, pt.Cores, len(pt.Runs), cfg.Runs)
		}
		if pt.OpsPerSec <= 0 {
			t.Errorf("%s/%s/%d: ops/sec = %v, want > 0", pt.Engine, pt.Workload, pt.Cores, pt.OpsPerSec)
		}
		if pt.Commits == 0 {
			t.Errorf("%s/%s/%d: no commits recorded", pt.Engine, pt.Workload, pt.Cores)
		}
	}

	if want := 3 * len(cfg.Cores); len(rep.Speedups) != want {
		t.Fatalf("speedups = %d, want %d", len(rep.Speedups), want)
	}
	for _, sp := range rep.Speedups {
		if len(sp.RunRatios) != cfg.Runs {
			t.Errorf("%s/%d: %d ratios, want %d", sp.Workload, sp.Cores, len(sp.RunRatios), cfg.Runs)
		}
		if sp.Ratio <= 0 {
			t.Errorf("%s/%d: ratio = %v, want > 0", sp.Workload, sp.Cores, sp.Ratio)
		}
	}
}
