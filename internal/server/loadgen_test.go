package server

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRunLoadFixedWork: every connection performs exactly OpsPerConn
// operations and the run reports the per-connection spread.
func TestRunLoadFixedWork(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	st, err := RunLoad(LoadConfig{
		Addr:       s.Addr().String(),
		Conns:      4,
		OpsPerConn: 100,
		Keys:       32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 400 {
		t.Fatalf("ops = %d, want exactly 4x100", st.Ops)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
	if st.P50us <= 0 || st.Throughput <= 0 {
		t.Fatalf("missing latency/throughput: %+v", st)
	}
}

// TestRunLoadPipelinedFixedWork: a pipelined fixed-work run issues and
// answers exactly OpsPerConn operations per connection — a full window
// must not carry the last fill past the budget.
func TestRunLoadPipelinedFixedWork(t *testing.T) {
	s := New(Config{Shards: 2, Workers: 2, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	st, err := RunLoad(LoadConfig{
		Addr:       s.Addr().String(),
		Conns:      4,
		Window:     16,
		OpsPerConn: 1000,
		Keys:       64,
		Shards:     2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Shutdown drains every operation the server accepted, so the batched
	// op count below covers anything issued past the budget.
	if serr := s.Shutdown(ctx); serr != nil {
		t.Fatalf("shutdown: %v", serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	var issued uint64
	for _, n := range st.ShardOps {
		issued += n
	}
	if issued != 4000 || st.Ops != 4000 {
		t.Fatalf("issued %d, answered %d; want exactly 4x1000 each", issued, st.Ops)
	}
	if n := s.batchedOps.Load(); n != 4000 {
		t.Fatalf("server executed %d ops, want 4000", n)
	}
}

// TestRunLoadPipelinedNoLatency: a pipelined run records no per-op
// latency, so it must report none rather than zeros — no p*_us fields in
// its JSON and "n/a" in its printed form — while a synchronous run keeps
// them.
func TestRunLoadPipelinedNoLatency(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	load := LoadConfig{Addr: s.Addr().String(), Conns: 2, Window: 8, OpsPerConn: 200, Keys: 32}
	st, err := RunLoad(load)
	if err != nil {
		t.Fatal(err)
	}
	if st.P50us != 0 || st.P95us != 0 || st.P99us != 0 {
		t.Fatalf("pipelined run reported latency: %+v", st)
	}
	if got := st.Latency(); got != "latency n/a (pipelined)" {
		t.Fatalf("Latency() = %q", got)
	}
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "_us") {
		t.Fatalf("pipelined RunStats JSON carries latency fields: %s", buf)
	}

	load.Window = 0
	if st, err = RunLoad(load); err != nil {
		t.Fatal(err)
	}
	if buf, _ = json.Marshal(st); !strings.Contains(string(buf), `"p99_us"`) || !strings.HasPrefix(st.Latency(), "p50=") {
		t.Fatalf("synchronous run lost its latency: %s / %q", buf, st.Latency())
	}
}

// TestBenchModesEndToEnd drives the whole comparison pipeline against a
// small server: warmup through the lifecycle flip, then alternating
// unguided/guided pairs via CtlModeGuided, producing a complete report.
func TestBenchModesEndToEnd(t *testing.T) {
	s := startServer(t, Config{
		Workers:       2,
		ProfileOps:    64,
		ProfileSlices: 2,
		ForceGuidance: true,
	})
	rep, err := SweepModes(LoadConfig{
		Addr:       s.Addr().String(),
		Conns:      4,
		OpsPerConn: 200,
		Keys:       32,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuidedMode != "guided" && rep.GuidedMode != "degraded" {
		t.Fatalf("guided mode = %q", rep.GuidedMode)
	}
	if len(rep.Unguided.Runs) != 2 || len(rep.Guided.Runs) != 2 {
		t.Fatalf("runs: unguided %d guided %d, want 2 each", len(rep.Unguided.Runs), len(rep.Guided.Runs))
	}
	for _, m := range []Record{rep.Unguided, rep.Guided} {
		if m.Commits == 0 {
			t.Fatalf("%s: no commits recorded", m.Mode)
		}
		for _, r := range m.Runs {
			if r.Ops != 800 {
				t.Fatalf("%s: run ops = %d, want 4x200", m.Mode, r.Ops)
			}
		}
	}
	// The unguided side of each pair must actually have served unguided,
	// and the guided side guided: guided execution gates transactions, so
	// gate decisions accumulate only there.
	if passed, held, _ := s.System().GateStats(); passed+held == 0 {
		t.Fatal("no gate activity recorded during guided runs")
	}
}

// TestCtlModeGuidedBeforeTraining: re-installing a model before one was
// ever trained must fail cleanly with StatusUnguidable.
func TestCtlModeGuidedBeforeTraining(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, _, err := cl.Do(OpCtl, uint64(CtlModeGuided), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusUnguidable {
		t.Fatalf("status = %d, want StatusUnguidable", st)
	}
	if mode, err := cl.Info(InfoMode); err != nil || ServingMode(mode) != ModeUnguided {
		t.Fatalf("mode = %v (err %v), want unguided", ServingMode(mode), err)
	}
}
