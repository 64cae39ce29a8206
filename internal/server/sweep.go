package server

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gstm/internal/stats"
)

// warmTimeout bounds how long a guided target's warm-up load may take to
// walk every shard's lifecycle out of profiling and training.
const warmTimeout = 120 * time.Second

// point is one measured configuration of a sweep: the server it drives,
// the load every measured run issues, and the serving mode it runs in.
type point struct {
	Name string
	// Server boots an in-process server from this Config; points holding
	// the same *Config share one server. Nil drives the live server at
	// Load.Addr.
	Server *Config
	Load   LoadConfig
	// Guided sends CtlModeGuided before each measured run, CtlModeUnguided
	// otherwise. A target with a guided point is warmed until every shard
	// has left profiling and training.
	Guided bool
}

// counters are the server counters a sweep attributes to its runs.
// Commits and aborts come per shard over the control plane, so a live
// server reports them too; the cross-shard and WAL counters are read from
// an in-process server and stay zero for a live one.
type counters struct {
	ShardCommits  []uint64 `json:"shard_commits"`
	ShardAborts   []uint64 `json:"shard_aborts"`
	Batches       uint64   `json:"batches"`
	BatchedOps    uint64   `json:"batched_ops"`
	XShardCommits uint64   `json:"xshard_commits,omitempty"`
	XShardAborts  uint64   `json:"xshard_aborts,omitempty"`
	WALAppends    uint64   `json:"wal_appends,omitempty"`
	WALBytes      uint64   `json:"wal_bytes,omitempty"`
	WALFsyncs     uint64   `json:"wal_fsyncs,omitempty"`
	WALSnapshots  uint64   `json:"wal_snapshots,omitempty"`
}

func (c *counters) scalars() []*uint64 {
	return []*uint64{&c.Batches, &c.BatchedOps, &c.XShardCommits, &c.XShardAborts,
		&c.WALAppends, &c.WALBytes, &c.WALFsyncs, &c.WALSnapshots}
}

// addDelta adds the growth from snapshot c0 to snapshot c1 into c.
func (c *counters) addDelta(c0, c1 counters) {
	if c.ShardCommits == nil {
		c.ShardCommits = make([]uint64, len(c1.ShardCommits))
		c.ShardAborts = make([]uint64, len(c1.ShardAborts))
	}
	for sh := range c1.ShardCommits {
		c.ShardCommits[sh] += c1.ShardCommits[sh] - c0.ShardCommits[sh]
		c.ShardAborts[sh] += c1.ShardAborts[sh] - c0.ShardAborts[sh]
	}
	dst, from, to := c.scalars(), c0.scalars(), c1.scalars()
	for i := range dst {
		*dst[i] += *to[i] - *from[i]
	}
}

func (c *counters) totals() (commits, aborts uint64) {
	for sh := range c.ShardCommits {
		commits += c.ShardCommits[sh]
		aborts += c.ShardAborts[sh]
	}
	return commits, aborts
}

// Record is one point's runs folded into the one BENCH schema.
type Record struct {
	Name string `json:"name"`
	// Mode is the serving mode the runs were measured in: "unguided", or
	// for a guided point the mode its warm-up reached (guided, degraded,
	// or rejected — a rejected target serves its guided point unguided).
	Mode string     `json:"mode"`
	Load LoadConfig `json:"load"`
	Runs []RunStats `json:"runs"`
	// Throughput is the median and quartiles of per-run throughput.
	Throughput      stats.Quartiles `json:"throughput_ops_per_s"`
	ThroughputCVPct float64         `json:"throughput_cv_pct"`
	// P95CVPct is the run-to-run CV of p95 latency (absent for pipelined
	// runs, which record no latency).
	P95CVPct float64 `json:"p95_cv_pct,omitempty"`
	// ConnSpreadMeanPct averages the per-run spread of per-connection
	// completion times (fixed-work runs only): the serving analogue of the
	// paper's per-thread execution-time dispersion. Machine speed is common
	// to all connections within a run, so it divides out — the headline
	// variance figure on noisy shared hardware.
	ConnSpreadMeanPct float64 `json:"conn_spread_mean_pct,omitempty"`
	// Commits, Aborts and AbortRatio total the per-shard counters.
	Commits    uint64  `json:"commits"`
	Aborts     uint64  `json:"aborts"`
	AbortRatio float64 `json:"abort_ratio"`
	counters           // summed over the runs
}

func (r *Record) fold() {
	var tput, p95, spread []float64
	for _, st := range r.Runs {
		tput = append(tput, st.Throughput)
		p95 = append(p95, st.P95us)
		spread = append(spread, st.ConnSpreadPct)
	}
	r.Throughput = stats.QuartilesOf(tput)
	r.ThroughputCVPct = 100 * stats.CoefficientOfVariation(tput)
	r.P95CVPct = 100 * stats.CoefficientOfVariation(p95)
	r.ConnSpreadMeanPct = stats.Mean(spread)
	r.Commits, r.Aborts = r.totals()
	if r.Commits > 0 {
		r.AbortRatio = float64(r.Aborts) / float64(r.Commits)
	}
}

// target is one server a sweep drives, with its control connection.
type target struct {
	srv    *Server // nil for a live server
	ctl    *Client
	shards int
	guided bool        // some point runs guided: warm the lifecycle first
	load   LoadConfig  // the first point's load, reused for warm-up
	mode   ServingMode // where the warm-up left the server
}

// sweep is a booted, warmed set of points ready to measure.
type sweep struct {
	points   []point
	on       []*target // on[i] serves points[i]
	targets  []*target
	progress io.Writer
}

// startSweep boots every in-process target, dials every target's control
// connection and warms each one. Warm-up runs are unmeasured: a guided
// target repeats quarter-length runs of its first point's load until
// every shard has left profiling and training, within warmTimeout; any
// other target takes one such run, so no measured run pays for cold
// caches or an empty keyspace. The caller must close the sweep.
func startSweep(points []point, progress io.Writer) (*sweep, error) {
	if progress == nil {
		progress = io.Discard
	}
	sw := &sweep{points: append([]point(nil), points...), progress: progress}
	byKey := map[any]*target{}
	for i := range sw.points {
		p := &sw.points[i]
		p.Load = p.Load.normalize()
		var key any = p.Server
		if p.Server == nil {
			key = p.Load.Addr
		}
		t := byKey[key]
		if t == nil {
			t = &target{load: p.Load}
			sw.targets = append(sw.targets, t)
			byKey[key] = t
			if err := t.boot(p.Server); err != nil {
				sw.close()
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		p.Load.Addr = t.load.Addr
		t.guided = t.guided || p.Guided
		sw.on = append(sw.on, t)
	}
	for i, t := range sw.targets {
		if err := t.warm(); err != nil {
			sw.close()
			return nil, fmt.Errorf("target %d warm-up: %w", i, err)
		}
	}
	return sw, nil
}

func (t *target) boot(cfg *Config) error {
	if cfg != nil {
		t.srv = New(*cfg)
		if err := t.srv.Start(); err != nil {
			t.srv = nil
			return err
		}
		t.load.Addr = t.srv.Addr().String()
	}
	var err error
	if t.ctl, err = Dial(t.load.Addr); err != nil {
		return fmt.Errorf("control connection: %w", err)
	}
	n, err := t.ctl.Info(InfoShards)
	t.shards = int(n)
	return err
}

func (t *target) warm() error {
	if t.guided {
		if err := t.ctl.Ctl(CtlModeAuto, 0); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(warmTimeout)
	for round := uint64(1); ; round++ {
		w := t.load
		w.OpsPerConn = (w.OpsPerConn + 3) / 4
		w.Duration /= 4
		w.Seed += 1000 * round
		if _, err := RunLoad(w); err != nil {
			return err
		}
		if !t.guided {
			return nil
		}
		settled := true
		for sh := 0; sh < t.shards; sh++ {
			m, err := t.ctl.InfoArg(InfoShardMode, uint64(sh))
			if err != nil {
				return err
			}
			if m := ServingMode(m); m == ModeProfiling || m == ModeTraining {
				settled = false
			}
		}
		if settled {
			m, err := t.ctl.Info(InfoMode)
			t.mode = ServingMode(m)
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards still profiling or training after %v", warmTimeout)
		}
	}
}

// snapshot reads the target's counters.
func (t *target) snapshot() (counters, error) {
	c := counters{ShardCommits: make([]uint64, t.shards), ShardAborts: make([]uint64, t.shards)}
	var err error
	for sh := 0; sh < t.shards; sh++ {
		if c.ShardCommits[sh], err = t.ctl.InfoArg(InfoShardCommits, uint64(sh)); err != nil {
			return c, err
		}
		if c.ShardAborts[sh], err = t.ctl.InfoArg(InfoShardAborts, uint64(sh)); err != nil {
			return c, err
		}
	}
	if c.Batches, err = t.ctl.Info(InfoBatches); err != nil {
		return c, err
	}
	if c.BatchedOps, err = t.ctl.Info(InfoBatchedOps); err != nil {
		return c, err
	}
	if t.srv != nil {
		for sh := 0; sh < t.shards; sh++ {
			m := t.srv.Router().System(sh).Telemetry()
			c.XShardCommits += m.XShardCommits.Load()
			c.XShardAborts += m.XShardAborts.Load()
			if l := t.srv.WAL(sh); l != nil {
				a, b, f, s := l.Stats()
				c.WALAppends += a
				c.WALBytes += b
				c.WALFsyncs += f
				c.WALSnapshots += s
			}
		}
	}
	return c, nil
}

// run measures runs rounds. Within a round every point runs once, in list
// order, so all points of a round share one machine-noise window: a slow
// minute degrades every curve together instead of denting whichever point
// happened to be measuring. Every run of a point replays the same input
// (its Load.Seed), so the spread measures the system, not the workload.
func (sw *sweep) run(runs int) ([]Record, error) {
	recs := make([]Record, len(sw.points))
	for i, p := range sw.points {
		recs[i] = Record{Name: p.Name, Mode: ModeUnguided.String(), Load: p.Load}
		if p.Guided {
			recs[i].Mode = sw.on[i].mode.String()
		}
	}
	for r := 0; r < runs; r++ {
		for i, p := range sw.points {
			st, err := sw.on[i].measure(p, &recs[i].counters)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", p.Name, r, err)
			}
			st.Seq = r*len(sw.points) + i
			recs[i].Runs = append(recs[i].Runs, st)
			fmt.Fprintf(sw.progress, "round %d  %-26s %9.0f ops/s  abort %.3f\n", r, p.Name, st.Throughput, st.AbortRatio)
		}
	}
	for i := range recs {
		r := &recs[i]
		r.fold()
		fmt.Fprintf(sw.progress, "%-26s %-8s %9.0f ops/s [%.0f..%.0f]  cv %5.2f%%  p95-cv %5.2f%%  spread %5.2f%%  abort %.3f  xshard %d/%d\n",
			r.Name, r.Mode, r.Throughput.Median, r.Throughput.Q1, r.Throughput.Q3, r.ThroughputCVPct, r.P95CVPct,
			r.ConnSpreadMeanPct, r.AbortRatio, r.XShardCommits, r.XShardAborts)
	}
	return recs, nil
}

// measure sets the point's mode, performs one run and adds the server's
// counter growth around it into sum.
func (t *target) measure(p point, sum *counters) (RunStats, error) {
	cmd := CtlModeUnguided
	if p.Guided && t.mode != ModeRejected {
		cmd = CtlModeGuided
	}
	if err := t.ctl.Ctl(cmd, 0); err != nil {
		return RunStats{}, err
	}
	c0, err := t.snapshot()
	if err != nil {
		return RunStats{}, err
	}
	st, err := RunLoad(p.Load)
	if err != nil {
		return st, err
	}
	c1, err := t.snapshot()
	if err != nil {
		return st, err
	}
	var d counters
	d.addDelta(c0, c1)
	sum.addDelta(c0, c1)
	if st.Commits, st.Aborts = d.totals(); st.Commits > 0 {
		st.AbortRatio = float64(st.Aborts) / float64(st.Commits)
	}
	return st, nil
}

func (sw *sweep) close() {
	for _, t := range sw.targets {
		if t.ctl != nil {
			t.ctl.Close()
		}
		if t.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = t.srv.Shutdown(ctx)
			cancel()
		}
	}
}

// The four serving sweeps behind cmd/gstm-loadgen: each is a point list
// run through the harness above plus the pure functions that read
// its acceptance flags off the folded records.

// ModesReport is the guided-vs-unguided serving comparison against a live
// server, written to BENCH_server.json.
type ModesReport struct {
	Description string    `json:"description"`
	Env         stats.Env `json:"environment"`
	RunsPerMode int       `json:"runs_per_mode"`
	Unguided    Record    `json:"unguided"`
	Guided      Record    `json:"guided"`
	GuidedMode  string    `json:"guided_mode"` // guided | rejected | degraded
	// VarianceReduced reports the acceptance condition; see varianceReduced.
	VarianceReduced bool `json:"variance_reduced"`
}

// SweepModes runs the comparison against the live server at load.Addr:
// warm-up load drives the profile→train→guide flip, then rounds alternate
// CtlModeUnguided and CtlModeGuided (which re-installs the trained model
// without re-profiling) so both modes sample the same machine-noise
// window. When the model was rejected the guided side still serves
// unguided, and the report labels it honestly.
func SweepModes(load LoadConfig, runs int, progress io.Writer) (ModesReport, error) {
	rep := ModesReport{
		Description: "gstm-loadgen guided vs unguided serving comparison: R repeated runs per mode, alternating modes run by run so both sample the same machine-noise window. Fixed-work runs measure execution variance as the per-connection completion-time spread (the paper's per-thread dispersion); timed runs fall back to run-to-run throughput CV.",
		Env:         stats.Environment(),
		RunsPerMode: runs,
	}
	sw, err := startSweep([]point{
		{Name: "unguided", Load: load},
		{Name: "guided", Load: load, Guided: true},
	}, progress)
	if err != nil {
		return rep, err
	}
	defer sw.close()
	recs, err := sw.run(runs)
	if err != nil {
		return rep, err
	}
	rep.Unguided, rep.Guided = recs[0], recs[1]
	rep.GuidedMode = rep.Guided.Mode
	rep.VarianceReduced = varianceReduced(rep.Unguided, rep.Guided)
	return rep, nil
}

// varianceReduced is the paper's acceptance condition: guided execution
// variance <= unguided. Fixed-work runs compare the per-connection
// completion-time spread; timed runs the run-to-run throughput CV.
func varianceReduced(unguided, guided Record) bool {
	if unguided.Load.OpsPerConn > 0 {
		return guided.ConnSpreadMeanPct <= unguided.ConnSpreadMeanPct
	}
	return guided.ThroughputCVPct <= unguided.ThroughputCVPct
}

// ShardReport is the shard-count sweep, written to BENCH_shard.json.
type ShardReport struct {
	Description string          `json:"description"`
	Env         stats.Env       `json:"environment"`
	Workloads   []ShardWorkload `json:"workloads"`
}

// ShardWorkload is one operation mix across the swept shard counts: an
// unguided then a guided record per shard count.
type ShardWorkload struct {
	Workload          string   `json:"workload"`
	Points            []Record `json:"points"`
	GuidedSpeedup4x   float64  `json:"guided_speedup_4x"`
	UnguidedSpeedup4x float64  `json:"unguided_speedup_4x"`
}

// SweepShards sweeps shard counts 1/2/4/8 × {write-heavy (100% Add),
// mixed (20/10/10 Get/Put/Del, 60% Add)} × {unguided, guided} against
// in-process servers, one per (workload, shard count), on pipelined
// fixed-work load. The settings are the tuned operating point for a
// small CI box: pipelines deep enough to saturate the commit path,
// batches wide enough that an unsharded System thrashes on its own
// footprint, and a uniform keyspace — a skewed head hashes its hot keys
// unevenly across shards, spreading the per-shard abort ratios far around
// their mean.
func SweepShards(runs int, progress io.Writer) (ShardReport, error) {
	rep := ShardReport{
		Description: "Shard sweep: aggregate throughput and abort-ratio curves per shard count (1/2/4/8), guided vs unguided, on pipelined fixed-work load (16 conns x window 96 x 6000 ops, uniform 2816 keys; servers: 8 workers, batch 48, interleave 2, force-guidance at Tfactor 8 after 2 x 4096-op profiling slices). Rounds interleave every (workload, shard count, mode) point so all sample the same machine-noise windows; per-shard counters are deltas around each run; speedups compare 4-shard to 1-shard median throughput.",
		Env:         stats.Environment(),
	}
	mixes := []struct {
		name                   string
		getPct, putPct, delPct int
	}{{"write-heavy", -1, 0, 0}, {"mixed", 20, 10, 10}} // Get -1 keeps normalize's default mix off: 100% Add
	shardCounts := []int{1, 2, 4, 8}
	var pts []point
	for _, m := range mixes {
		for _, n := range shardCounts {
			srv := &Config{Shards: n, Workers: 8, Batch: 48, Buckets: 2 * 2816, Interleave: 2,
				ProfileOps: 4096, ProfileSlices: 2, Tfactor: 8, ForceGuidance: true}
			load := LoadConfig{Conns: 16, Window: 96, OpsPerConn: 6000, Keys: 2816, Skew: 1,
				GetPct: m.getPct, PutPct: m.putPct, DelPct: m.delPct, Shards: n}
			name := fmt.Sprintf("%s/%d-shard", m.name, n)
			pts = append(pts,
				point{Name: name + "/unguided", Server: srv, Load: load},
				point{Name: name + "/guided", Server: srv, Load: load, Guided: true})
		}
	}
	sw, err := startSweep(pts, progress)
	if err != nil {
		return rep, err
	}
	defer sw.close()
	recs, err := sw.run(runs)
	if err != nil {
		return rep, err
	}
	per := 2 * len(shardCounts)
	for w, m := range mixes {
		wr := ShardWorkload{Workload: m.name, Points: recs[w*per : (w+1)*per]}
		// shardCounts[0] is 1 shard, shardCounts[2] is 4; unguided then guided.
		wr.UnguidedSpeedup4x = speedup(wr.Points[0], wr.Points[4])
		wr.GuidedSpeedup4x = speedup(wr.Points[1], wr.Points[5])
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// speedup is scaled's median throughput over base's (0 when base has none).
func speedup(base, scaled Record) float64 {
	if base.Throughput.Median <= 0 {
		return 0
	}
	return scaled.Throughput.Median / base.Throughput.Median
}

// WALReport is the durability cost sweep, written to BENCH_wal.json.
type WALReport struct {
	Description string     `json:"description"`
	Env         stats.Env  `json:"environment"`
	Points      []WALPoint `json:"points"`
	// RelaxedTargetMet reports the acceptance condition; see
	// relaxedTargetMet.
	RelaxedTargetMet bool `json:"relaxed_target_met"`
}

// WALPoint is one durability setting's record.
type WALPoint struct {
	Record
	// RelativeThroughput is this point's median throughput over the
	// non-durable baseline's (1.0 for the baseline itself).
	RelativeThroughput float64 `json:"relative_throughput"`
}

// relaxedFloor is the share of the non-durable baseline's throughput
// some relaxed fsync window must keep.
const relaxedFloor = 0.70

// SweepWAL measures the WAL's throughput cost: durability off (the
// baseline), strict, and relaxed fsync windows of 1/5/20ms, each on its
// own unguided in-process server (guidance off isolates the durability
// cost from the guidance comparison BENCH_server.json covers), all
// serving the same pipelined write-heavy fixed-work load in interleaved
// rounds.
func SweepWAL(runs int, progress io.Writer) (WALReport, error) {
	rep := WALReport{
		Description: "gstm-loadgen durability cost sweep: identical pipelined write-heavy fixed-work runs (8 conns x window 32 x 6000 ops, 100% Add, 512 keys at skew 3) against unguided in-process servers (4 workers, batch 8) with durability off (baseline) and a WAL at each fsync window, rounds interleaved across the points. Strict (interval 0) fsyncs before every ack; relaxed acks from the page cache and fsyncs per window. relative_throughput is median throughput vs the baseline's; WAL counters are deltas over the measured runs.",
		Env:         stats.Environment(),
	}
	dir, err := os.MkdirTemp("", "gstm-walsweep")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)

	load := LoadConfig{Conns: 8, Window: 32, OpsPerConn: 6000, Keys: 512, Skew: 3, GetPct: -1}
	pts := []point{{Name: "off", Server: &Config{Workers: 4, Batch: 8, Buckets: 2 * 512, Unguided: true}, Load: load}}
	for _, iv := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		name := "strict"
		if iv > 0 {
			name = "relaxed-" + iv.String()
		}
		srv := &Config{Workers: 4, Batch: 8, Buckets: 2 * 512, Unguided: true,
			WALDir: filepath.Join(dir, name), FsyncInterval: iv}
		pts = append(pts, point{Name: name, Server: srv, Load: load})
	}
	sw, err := startSweep(pts, progress)
	if err != nil {
		return rep, err
	}
	defer sw.close()
	recs, err := sw.run(runs)
	if err != nil {
		return rep, err
	}
	for _, r := range recs {
		rep.Points = append(rep.Points, WALPoint{Record: r, RelativeThroughput: speedup(recs[0], r)})
	}
	rep.RelaxedTargetMet = relaxedTargetMet(recs[0], recs[2:])
	return rep, nil
}

// relaxedTargetMet reports whether some relaxed point keeps at least
// relaxedFloor of the non-durable baseline's median throughput.
func relaxedTargetMet(off Record, relaxed []Record) bool {
	for _, r := range relaxed {
		if speedup(off, r) >= relaxedFloor {
			return true
		}
	}
	return false
}

// XShardReport is the cross-shard transfer sweep, written to
// BENCH_xshard.json.
type XShardReport struct {
	Description string    `json:"description"`
	Env         stats.Env `json:"environment"`
	// Baseline and Check are two interleaved series at transfer-pct 0 —
	// identical pure single-shard load with the cross-shard machinery
	// compiled in and idle. Their ratio is the regression gate: the OpTxn
	// path and the MultiGroup fence must cost the plain path nothing.
	Baseline Record `json:"baseline"`
	Check    Record `json:"check"`
	// BaselineRatio is the min/max of the two pct-0 medians (1.0 =
	// identical).
	BaselineRatio         float64  `json:"baseline_ratio"`
	SingleShardWithin3Pct bool     `json:"single_shard_within_3pct"`
	Points                []Record `json:"points"`
	// BalanceConserved reports the post-sweep conservation check: after a
	// final pure-transfer run the keyspace's signed total is unchanged
	// (every transfer committed on both shards or neither).
	BalanceConserved bool `json:"balance_conserved"`
}

// baselineFloor is the pct-0 gate: the two transfer-free series must
// agree within 3%.
const baselineFloor = 0.97

// SweepXShard sweeps the transfer share 0→50% against one unguided
// in-process 4-shard server. The residual (non-transfer) mix is pure Add,
// the write-heavy single-shard pattern the cross-shard protocol must not
// slow down; the server stays unguided so mode churn cannot alias into
// the curves.
func SweepXShard(runs int, progress io.Writer) (XShardReport, error) {
	rep := XShardReport{
		Description: "Cross-shard transfer sweep: aggregate throughput vs the share of ops that are two-key cross-shard transfers (single OpTxn, zero-sum), on pipelined fixed-work unguided load (16 conns x window 96 x 12000 ops, uniform 2816 keys; one 4-shard server, 8 workers, batch 48), rounds interleaved across every point. Two transfer-free series gate the single-shard path (within 3%); xshard counters are participant-side deltas (a committed transfer counts once per participant shard); a final pure-transfer run checks balance conservation.",
		Env:         stats.Environment(),
	}
	srv := &Config{Shards: 4, Workers: 8, Batch: 48, Buckets: 2 * 2816, Unguided: true}
	load := LoadConfig{Conns: 16, Window: 96, OpsPerConn: 12000, Keys: 2816, Skew: 1, GetPct: -1, Shards: 4}
	pts := []point{{Name: "baseline/0", Server: srv, Load: load}, {Name: "check/0", Server: srv, Load: load}}
	for _, pct := range []int{10, 20, 30, 50} {
		lc := load
		lc.TransferPct = pct
		pts = append(pts, point{Name: fmt.Sprintf("transfer/%d", pct), Server: srv, Load: lc})
	}
	sw, err := startSweep(pts, progress)
	if err != nil {
		return rep, err
	}
	defer sw.close()
	recs, err := sw.run(runs)
	if err != nil {
		return rep, err
	}
	rep.Baseline, rep.Check, rep.Points = recs[0], recs[1], recs[2:]
	rep.BaselineRatio = baselineRatio(rep.Baseline, rep.Check)
	rep.SingleShardWithin3Pct = rep.BaselineRatio >= baselineFloor

	// Conservation: snapshot the signed total, push a pure-transfer run
	// (TransferPct 100 — the residual mix is never drawn, so nothing but
	// zero-sum transfers mutates the keyspace), re-sum.
	addr := sw.points[0].Load.Addr
	before, err := VerifyBalance(addr, load.Keys)
	if err != nil {
		return rep, err
	}
	pure := sw.points[0].Load
	pure.TransferPct = 100
	if _, err := RunLoad(pure); err != nil {
		return rep, fmt.Errorf("pure-transfer run: %w", err)
	}
	after, err := VerifyBalance(addr, load.Keys)
	if err != nil {
		return rep, err
	}
	rep.BalanceConserved = before == after
	return rep, nil
}

// baselineRatio is min/max of two records' median throughputs.
func baselineRatio(a, b Record) float64 {
	lo, hi := a.Throughput.Median, b.Throughput.Median
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi <= 0 {
		return 0
	}
	return lo / hi
}
