package server

import (
	"context"
	"fmt"
	"io"
	"time"
)

// XShardBenchConfig parameterizes BenchXShard: a transfer-mix sweep
// against one in-process sharded server. The residual (non-transfer) mix
// is pure Add — the write-heavy single-shard pattern the cross-shard
// protocol must not slow down.
type XShardBenchConfig struct {
	TransferPcts []int   `json:"transfer_pcts"` // swept transfer percentages (default 10,20,30,50)
	Shards       int     `json:"shards"`        // server shard count (default 4)
	Workers      int     `json:"workers"`       // server workers (default 8)
	Batch        int     `json:"batch"`         // server batch cap (default 48)
	Conns        int     `json:"conns"`         // pipelined client connections (default 16)
	Window       int     `json:"window"`        // requests in flight per connection (default 96)
	OpsPerConn   int     `json:"ops_per_conn"`  // fixed work per connection per run (default 12000)
	Keys         int     `json:"keys"`          // key-space size (default 2816)
	Skew         float64 `json:"skew"`          // key skew exponent (default 1 = uniform)
	Runs         int     `json:"runs"`          // measured runs per point (default 5)

	Progress io.Writer `json:"-"`
}

func (cfg XShardBenchConfig) normalize() XShardBenchConfig {
	if len(cfg.TransferPcts) == 0 {
		cfg.TransferPcts = []int{10, 20, 30, 50}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 48
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 16
	}
	if cfg.Window <= 1 {
		cfg.Window = 96
	}
	if cfg.OpsPerConn <= 0 {
		cfg.OpsPerConn = 12000
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 2816
	}
	if cfg.Skew < 1 {
		cfg.Skew = 1
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5
	}
	return cfg
}

// XShardPoint is one transfer percentage's aggregate over the measured
// runs.
type XShardPoint struct {
	TransferPct      int       `json:"transfer_pct"`
	ThroughputMedian float64   `json:"throughput_median_ops_per_s"`
	ThroughputRuns   []float64 `json:"throughput_runs_ops_per_s"`
	Transfers        uint64    `json:"transfers"`
	// XShardCommits/XShardAborts are summed participant-side counter
	// deltas: each committed cross-shard transaction counts once per
	// participant shard (2 for a transfer), each aborted prepare round
	// likewise.
	XShardCommits    uint64  `json:"xshard_commits"`
	XShardAborts     uint64  `json:"xshard_aborts"`
	XShardAbortRatio float64 `json:"xshard_abort_ratio"`
}

// XShardBenchReport is the transfer-mix sweep, written to
// BENCH_xshard.json.
type XShardBenchReport struct {
	Description string            `json:"description"`
	Config      XShardBenchConfig `json:"config"`
	// Baseline and Check are two interleaved series at transfer-pct 0 —
	// identical pure single-shard load with the cross-shard machinery
	// compiled in and idle. Their ratio is the regression gate: the OpTxn
	// path, the MultiGroup fence and the prepared-commit split must cost
	// the plain path nothing.
	Baseline XShardPoint `json:"baseline"`
	Check    XShardPoint `json:"check"`
	// BaselineRatio = min/max of the two pct-0 medians (1.0 = identical).
	BaselineRatio         float64       `json:"baseline_ratio"`
	SingleShardWithin3Pct bool          `json:"single_shard_within_3pct"`
	Points                []XShardPoint `json:"points"`
	// BalanceConserved reports the post-sweep conservation check: after
	// a final pure-transfer run, the keyspace's signed total is unchanged
	// (every transfer committed on both shards or neither).
	BalanceConserved bool `json:"balance_conserved"`
}

// xshardAcc accumulates one point's runs.
type xshardAcc struct {
	pct     int
	tputs   []float64
	xfers   uint64
	commits uint64
	aborts  uint64
}

func (a *xshardAcc) finish() XShardPoint {
	pt := XShardPoint{
		TransferPct:      a.pct,
		ThroughputMedian: median(a.tputs),
		ThroughputRuns:   a.tputs,
		Transfers:        a.xfers,
		XShardCommits:    a.commits,
		XShardAborts:     a.aborts,
	}
	if pt.XShardCommits > 0 {
		pt.XShardAbortRatio = float64(pt.XShardAborts) / float64(pt.XShardCommits)
	}
	return pt
}

// BenchXShard sweeps the transfer mix 0→max against one in-process
// sharded server, measuring aggregate throughput and the cross-shard
// commit/abort counters. Rounds interleave every point (including the two
// pct-0 regression series) so all samples share the machine-noise
// windows; the server stays unguided throughout so mode churn cannot
// alias into the curves.
func BenchXShard(cfg XShardBenchConfig) (XShardBenchReport, error) {
	cfg = cfg.normalize()
	rep := XShardBenchReport{
		Description: "Cross-shard transfer sweep: aggregate throughput vs the share of ops that are two-key cross-shard transfers (single OpTxn, zero-sum), on pipelined fixed-work unguided load. Two interleaved transfer-free series gate the single-shard path (within 3%); the sweep points carry participant-side cross-shard commit/abort counter deltas; a final pure-transfer run checks balance conservation.",
		Config:      cfg,
	}

	srv := New(Config{
		Shards:   cfg.Shards,
		Workers:  cfg.Workers,
		Batch:    cfg.Batch,
		Buckets:  2 * cfg.Keys,
		Unguided: true,
	})
	if err := srv.Start(); err != nil {
		return rep, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}()

	xshard := func() (c, a uint64) {
		for sh := 0; sh < cfg.Shards; sh++ {
			m := srv.Router().System(sh).Telemetry()
			c += m.XShardCommits.Load()
			a += m.XShardAborts.Load()
		}
		return
	}

	load := LoadConfig{
		Addr:       srv.Addr().String(),
		Conns:      cfg.Conns,
		Window:     cfg.Window,
		OpsPerConn: cfg.OpsPerConn,
		Keys:       cfg.Keys,
		Skew:       cfg.Skew,
		GetPct:     -1, // defeat normalize()'s default mix: residual ops are 100% Add
		Shards:     cfg.Shards,
		Seed:       0xC0FFEE,
	}

	// Populate the keyspace and fault in both execution paths (batched
	// single-op and OpTxn) before anything is measured.
	prime := load
	prime.TransferPct = 20
	if _, err := RunLoad(prime); err != nil {
		return rep, fmt.Errorf("prime run: %w", err)
	}

	accs := []*xshardAcc{{pct: 0}, {pct: 0}} // baseline, check
	for _, pct := range cfg.TransferPcts {
		accs = append(accs, &xshardAcc{pct: pct})
	}
	for r := 0; r < cfg.Runs; r++ {
		// Unmeasured quarter-length warmup keeps each round's measured
		// samples out of the scheduler's cold start (same idiom as the
		// shard sweep).
		warm := load
		warm.OpsPerConn = cfg.OpsPerConn / 4
		warm.Seed = load.Seed + uint64(500+r)
		if _, err := RunLoad(warm); err != nil {
			return rep, fmt.Errorf("warmup round %d: %w", r, err)
		}
		for i, acc := range accs {
			lc := load
			lc.TransferPct = acc.pct
			lc.Seed = load.Seed + uint64(1000*r+i)
			c0, a0 := xshard()
			st, err := RunLoad(lc)
			if err != nil {
				return rep, fmt.Errorf("transfer-pct %d run %d: %w", acc.pct, r, err)
			}
			c1, a1 := xshard()
			acc.tputs = append(acc.tputs, st.Throughput)
			acc.xfers += st.Transfers
			acc.commits += c1 - c0
			acc.aborts += a1 - a0
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "round %d transfer-pct %2d: %8.0f ops/s (%d transfers, xshard commits +%d aborts +%d)\n",
					r, acc.pct, st.Throughput, st.Transfers, c1-c0, a1-a0)
			}
		}
	}

	rep.Baseline = accs[0].finish()
	rep.Check = accs[1].finish()
	for _, acc := range accs[2:] {
		rep.Points = append(rep.Points, acc.finish())
	}
	lo, hi := rep.Baseline.ThroughputMedian, rep.Check.ThroughputMedian
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 0 {
		rep.BaselineRatio = lo / hi
	}
	rep.SingleShardWithin3Pct = rep.BaselineRatio >= 0.97

	// Conservation: snapshot the signed total, push a pure-transfer run
	// (TransferPct 100 — the residual mix is never drawn, so nothing but
	// zero-sum transfers mutates the keyspace), re-sum. The total must not
	// move.
	before, err := VerifyBalance(load.Addr, cfg.Keys)
	if err != nil {
		return rep, err
	}
	pure := load
	pure.TransferPct = 100
	pure.Seed = load.Seed + 1
	if _, err := RunLoad(pure); err != nil {
		return rep, fmt.Errorf("pure-transfer run: %w", err)
	}
	after, err := VerifyBalance(load.Addr, cfg.Keys)
	if err != nil {
		return rep, err
	}
	rep.BalanceConserved = before == after
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "balance before %d after %d conserved=%v; pct-0 ratio %.4f\n",
			before, after, rep.BalanceConserved, rep.BaselineRatio)
	}
	return rep, nil
}
