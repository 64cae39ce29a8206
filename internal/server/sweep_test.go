package server

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gstm/internal/stats"
)

// TestSweepHarness drives the harness core with three tiny in-process
// points — a synchronous one on a 1-shard server, and a pipelined one plus
// a transfer mix sharing a 2-shard server — and checks what every BENCH
// file rests on: rounds interleave round-major across points, fixed work
// is exact, the per-shard counter deltas add up to the servers' totals,
// and the folded spread is the stats package's.
func TestSweepHarness(t *testing.T) {
	one := &Config{Workers: 2, Unguided: true}
	two := &Config{Shards: 2, Workers: 2, Unguided: true}
	pts := []point{
		{Name: "sync", Server: one, Load: LoadConfig{Conns: 2, OpsPerConn: 150, Keys: 32}},
		{Name: "piped", Server: two, Load: LoadConfig{Conns: 3, Window: 8, OpsPerConn: 200, Keys: 64, Shards: 2}},
		{Name: "transfers", Server: two, Load: LoadConfig{Conns: 2, Window: 4, OpsPerConn: 100, Keys: 64, TransferPct: 50, Shards: 2}},
	}
	var progress bytes.Buffer
	sw, err := startSweep(pts, &progress)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.close()
	if len(sw.targets) != 2 {
		t.Fatalf("booted %d servers, want 2 (points sharing a *Config share one)", len(sw.targets))
	}
	type totals struct{ commits, aborts, batchedOps uint64 }
	serverTotals := func() []totals {
		var out []totals
		for _, tg := range sw.targets {
			c, a := tg.srv.Router().Stats()
			out = append(out, totals{c, a, tg.srv.batchedOps.Load()})
		}
		return out
	}
	before := serverTotals()
	const runs = 2
	recs, err := sw.run(runs)
	if err != nil {
		t.Fatal(err)
	}
	after := serverTotals()

	// (a) Round-major order: the runs happened round by round, every point
	// once per round in list order, and each run's Seq says so.
	var order []string
	sc := bufio.NewScanner(&progress)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "round ") {
			continue // a folded record's summary line
		}
		var round int
		var name string
		if _, err := fmt.Sscanf(sc.Text(), "round %d %s", &round, &name); err != nil {
			t.Fatalf("progress line %q: %v", sc.Text(), err)
		}
		order = append(order, fmt.Sprintf("%d/%s", round, name))
	}
	var want []string
	for r := 0; r < runs; r++ {
		for _, p := range pts {
			want = append(want, fmt.Sprintf("%d/%s", r, p.Name))
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	for i, rec := range recs {
		for r, st := range rec.Runs {
			if st.Seq != r*len(pts)+i {
				t.Errorf("%s run %d: seq %d, want %d", rec.Name, r, st.Seq, r*len(pts)+i)
			}
		}
	}

	var sums [2]totals
	for i, rec := range recs {
		if len(rec.Runs) != runs {
			t.Fatalf("%s: %d runs, want %d", rec.Name, len(rec.Runs), runs)
		}
		// (b) Exact fixed work.
		want := uint64(pts[i].Load.Conns * pts[i].Load.OpsPerConn)
		for r, st := range rec.Runs {
			if st.Ops != want {
				t.Errorf("%s run %d: %d ops, want %d", rec.Name, r, st.Ops, want)
			}
		}
		// (d) The fold's median and quartiles are the stats package's.
		var tput []float64
		for _, st := range rec.Runs {
			tput = append(tput, st.Throughput)
		}
		if q := stats.QuartilesOf(tput); rec.Throughput != q || q.Median != stats.Median(tput) {
			t.Errorf("%s: throughput %+v, want %+v (median %v)", rec.Name, rec.Throughput, q, stats.Median(tput))
		}
		tg := 0
		if pts[i].Server == two {
			tg = 1
		}
		sums[tg].commits += rec.Commits
		sums[tg].aborts += rec.Aborts
		sums[tg].batchedOps += rec.BatchedOps
		if len(rec.ShardCommits) != sw.on[i].shards {
			t.Errorf("%s: %d per-shard counters", rec.Name, len(rec.ShardCommits))
		}
	}
	// (c) Per-shard deltas, summed over every point on a server, account
	// for exactly what that server committed, aborted and executed.
	for tg := range sw.targets {
		got := sums[tg]
		want := totals{after[tg].commits - before[tg].commits, after[tg].aborts - before[tg].aborts,
			after[tg].batchedOps - before[tg].batchedOps}
		if got != want || got.commits == 0 {
			t.Errorf("server %d: records sum to %+v, server counted %+v", tg, got, want)
		}
	}
	if recs[2].XShardCommits == 0 {
		t.Error("transfer point recorded no cross-shard commits")
	}
	if recs[1].XShardCommits != 0 {
		t.Errorf("transfer-free point recorded %d cross-shard commits", recs[1].XShardCommits)
	}
}

// rec builds a synthetic record for the acceptance-flag tables.
func rec(median, cv, spread float64, fixedWork bool) Record {
	r := Record{Throughput: stats.Quartiles{Median: median}, ThroughputCVPct: cv, ConnSpreadMeanPct: spread}
	if fixedWork {
		r.Load.OpsPerConn = 100
	}
	return r
}

func TestVarianceReduced(t *testing.T) {
	cases := []struct {
		name             string
		unguided, guided Record
		want             bool
	}{
		{"fixed-work spread lower", rec(0, 9, 0.30, true), rec(0, 1, 0.20, true), true},
		{"fixed-work spread equal", rec(0, 9, 0.20, true), rec(0, 9, 0.20, true), true},
		// Fixed work reads the spread, not the throughput CV.
		{"fixed-work spread higher", rec(0, 9, 0.20, true), rec(0, 1, 0.21, true), false},
		{"timed cv lower", rec(0, 6, 0.9, false), rec(0, 5, 0.1, false), true},
		{"timed cv higher", rec(0, 5, 0.9, false), rec(0, 6, 0.1, false), false},
	}
	for _, c := range cases {
		if got := varianceReduced(c.unguided, c.guided); got != c.want {
			t.Errorf("%s: varianceReduced = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	cases := []struct {
		base, scaled float64
		want         float64
	}{
		{100, 160, 1.6},
		{100, 400, 4},
		{100, 50, 0.5},
		{0, 50, 0}, // no baseline: no ratio
	}
	for _, c := range cases {
		if got := speedup(rec(c.base, 0, 0, true), rec(c.scaled, 0, 0, true)); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("speedup(%v, %v) = %v, want %v", c.base, c.scaled, got, c.want)
		}
	}
}

func TestRelaxedTargetMet(t *testing.T) {
	off := rec(1000, 0, 0, true)
	cases := []struct {
		name    string
		relaxed []float64
		want    bool
	}{
		{"one window at the floor", []float64{500, 700, 600}, true},
		{"one window above", []float64{900}, true},
		{"all just below", []float64{699, 650}, false},
		{"no relaxed points", nil, false},
	}
	for _, c := range cases {
		var rs []Record
		for _, m := range c.relaxed {
			rs = append(rs, rec(m, 0, 0, true))
		}
		if got := relaxedTargetMet(off, rs); got != c.want {
			t.Errorf("%s: relaxedTargetMet = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBaselineRatio(t *testing.T) {
	cases := []struct {
		a, b       float64
		within3Pct bool
	}{
		{100, 100, true},
		{100, 97, true},
		{97, 100, true}, // symmetric
		{100, 96.9, false},
		{96.9, 100, false},
		{0, 0, false},
	}
	for _, c := range cases {
		r := baselineRatio(rec(c.a, 0, 0, true), rec(c.b, 0, 0, true))
		if got := r >= baselineFloor; got != c.within3Pct {
			t.Errorf("baselineRatio(%v, %v) = %v: within 3%% %v, want %v", c.a, c.b, r, got, c.within3Pct)
		}
	}
}
