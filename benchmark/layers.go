package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"

	"gstm/internal/obs"
	"gstm/internal/server"
)

// layerSnap is one reading of every counter and histogram the layers
// already expose. The benchmark diffs two readings around a stretch of
// load; nothing here adds instrumentation to the program.
type layerSnap struct {
	agg               obs.AggSnapshot // per shard, per phase
	commits, aborts   uint64
	byCause           [obs.NumCauses]uint64
	xCommits, xAborts uint64
	gate              [3]uint64 // passed, held (then passed), escaped
	wal               [4]uint64 // appends, bytes, fsyncs, snapshots
	batches, batchOps uint64
	allocBytes        uint64
	gcCPU, allCPU     float64 // seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readLayers reads srv's layer accessors, ctl's Info gauges and the Go
// runtime's counters.
func readLayers(srv *server.Server, ctl *server.Client) (layerSnap, error) {
	var s layerSnap
	s.agg = srv.Observatory().Agg()
	s.commits, s.aborts = srv.Router().Stats()
	for i := 0; i < srv.Shards(); i++ {
		sys := srv.Router().System(i)
		tel := sys.TelemetrySnapshot()
		for c, n := range tel.AbortsByCause {
			if c < len(s.byCause) {
				s.byCause[c] += n
			}
		}
		s.xCommits += tel.XShardCommits
		s.xAborts += tel.XShardAborts
		p, h, e := sys.GateStats()
		s.gate[0] += p
		s.gate[1] += h
		s.gate[2] += e
		if l := srv.WAL(i); l != nil {
			a, b, f, n := l.Stats()
			s.wal[0] += a
			s.wal[1] += b
			s.wal[2] += f
			s.wal[3] += n
		}
	}
	var err error
	if s.batches, err = ctl.Info(server.InfoBatches); err != nil {
		return s, fmt.Errorf("info batches: %w", err)
	}
	if s.batchOps, err = ctl.Info(server.InfoBatchedOps); err != nil {
		return s, fmt.Errorf("info batched ops: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	metrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64()
	s.allCPU = cpuSamples[1].Value.Float64()
	return s, nil
}

// delta returns what accumulated from prev to s. Gate counts restart when
// guidance is re-installed, so a counter that went backwards reads as 0.
func (s layerSnap) delta(prev layerSnap) layerSnap {
	d := layerSnap{
		agg:        server.DiffTraceAgg(s.agg, prev.agg),
		commits:    sub(s.commits, prev.commits),
		aborts:     sub(s.aborts, prev.aborts),
		xCommits:   sub(s.xCommits, prev.xCommits),
		xAborts:    sub(s.xAborts, prev.xAborts),
		batches:    sub(s.batches, prev.batches),
		batchOps:   sub(s.batchOps, prev.batchOps),
		allocBytes: sub(s.allocBytes, prev.allocBytes),
		gcCPU:      s.gcCPU - prev.gcCPU,
		allCPU:     s.allCPU - prev.allCPU,
	}
	for i := range d.byCause {
		d.byCause[i] = sub(s.byCause[i], prev.byCause[i])
	}
	for i := range d.gate {
		d.gate[i] = sub(s.gate[i], prev.gate[i])
	}
	for i := range d.wal {
		d.wal[i] = sub(s.wal[i], prev.wal[i])
	}
	return d
}

// plus adds two deltas, so disjoint stretches of a run sum into one.
func (s layerSnap) plus(o layerSnap) layerSnap {
	r := s
	r.agg = addAgg(s.agg, o.agg)
	r.commits += o.commits
	r.aborts += o.aborts
	r.xCommits += o.xCommits
	r.xAborts += o.xAborts
	r.batches += o.batches
	r.batchOps += o.batchOps
	r.allocBytes += o.allocBytes
	r.gcCPU += o.gcCPU
	r.allCPU += o.allCPU
	for i := range r.byCause {
		r.byCause[i] += o.byCause[i]
	}
	for i := range r.gate {
		r.gate[i] += o.gate[i]
	}
	for i := range r.wal {
		r.wal[i] += o.wal[i]
	}
	return r
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// addHist merges two bucket dumps of the same layout, keeping buckets in
// ascending order as HistCounts.Quantile requires.
func addHist(a, b obs.HistCounts) obs.HistCounts {
	at := make(map[uint64]uint64)
	for _, h := range []obs.HistCounts{a, b} {
		for i := 0; i+1 < len(h.Buckets); i += 2 {
			at[h.Buckets[i]] += h.Buckets[i+1]
		}
	}
	idx := make([]uint64, 0, len(at))
	for b := range at {
		idx = append(idx, b)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	out := obs.HistCounts{Count: a.Count + b.Count, SumNs: a.SumNs + b.SumNs}
	for _, b := range idx {
		out.Buckets = append(out.Buckets, b, at[b])
	}
	return out
}

// addAgg merges two aggregation snapshots shard by shard.
func addAgg(a, b obs.AggSnapshot) obs.AggSnapshot {
	byShard := make(map[int]obs.ShardAggSnapshot)
	for _, snap := range []obs.AggSnapshot{a, b} {
		for _, sh := range snap.Shards {
			cur, ok := byShard[sh.Shard]
			if !ok {
				cur = obs.ShardAggSnapshot{Shard: sh.Shard, Phases: make(map[string]obs.HistCounts)}
			}
			cur.Total = addHist(cur.Total, sh.Total)
			for name, hc := range sh.Phases {
				cur.Phases[name] = addHist(cur.Phases[name], hc)
			}
			byShard[sh.Shard] = cur
		}
	}
	out := obs.AggSnapshot{}
	for _, sh := range byShard {
		out.Shards = append(out.Shards, sh)
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	return out
}

// allShards folds every shard into one distribution per phase and one for
// the span total.
func allShards(a obs.AggSnapshot) (phases map[string]obs.HistCounts, total obs.HistCounts) {
	phases = make(map[string]obs.HistCounts)
	for _, sh := range a.Shards {
		total = addHist(total, sh.Total)
		for name, hc := range sh.Phases {
			phases[name] = addHist(phases[name], hc)
		}
	}
	return phases, total
}

// clientSide is what the benchmark measured itself over the traced
// stretches of a run.
type clientSide struct {
	ops       int     // operations sent with the trace bit and answered
	mutOps    int     // of those, Put/Add/Del/Txn answered StatusOK
	rttMeanUs float64 // mean send→response time
	overhead  float64 // % throughput lost to tracing (traced vs untraced)
	setup     setupTimes
}

// abortCauses are the per-cause abort rates reported: the causes an
// engine, guidance or cross-shard change can move.
var abortCauses = []obs.Cause{
	obs.CauseReadValidation, obs.CauseLockBusy, obs.CauseClockCAS, obs.CauseXShardValidation,
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns uint64) float64 { return float64(ns) / 1e3 }

// layerMetrics turns a summed delta and the client-side figures into the
// per-layer metrics, keyed by name.
func layerMetrics(d layerSnap, c clientSide) map[string]float64 {
	ph, total := allShards(d.agg)
	var phaseSum uint64
	for _, hc := range ph {
		phaseSum += hc.SumNs
	}
	spanMean := div(us(total.SumNs), float64(total.Count))
	commits := float64(d.commits)
	gateAll := float64(d.gate[0] + d.gate[1] + d.gate[2])
	m := map[string]float64{
		"client.rtt_mean_us":       c.rttMeanUs,
		"client.outside_server_us": c.rttMeanUs - spanMean,
		"server.span_mean_us":      spanMean,
		"server.unattributed_us":   div(us(total.SumNs)-us(phaseSum), float64(total.Count)),
		"server.decode_mean_us":    us(ph["decode"].MeanNs()),
		"server.queue_p50_us":      us(ph["queue"].Quantile(0.50)),
		"server.queue_p99_us":      us(ph["queue"].Quantile(0.99)),
		"server.ops_per_batch":     div(float64(d.batchOps), float64(d.batches)),
		"shard.subtxns_per_batch":  div(commits, float64(d.batches)),
		"shard.xshard_abort_ratio": div(float64(d.xAborts), float64(d.xCommits)),
		"shard.xprepare_spans":     float64(ph["xprepare"].Count),
		"shard.xprepare_p99_us":    us(ph["xprepare"].Quantile(0.99)),
		"shard.xpublish_p99_us":    us(ph["xpublish"].Quantile(0.99)),
		"tl2.abort_ratio":          div(float64(d.aborts), commits),
		"tl2.retry_share":          div(float64(ph["retry"].Count), float64(total.Count)),
		"tl2.retry_p99_us":         us(ph["retry"].Quantile(0.99)),
		"tl2.lock_mean_us":         us(ph["lock"].MeanNs()),
		"tl2.validate_mean_us":     us(ph["validate"].MeanNs()),
		"tl2.publish_mean_us":      us(ph["publish"].MeanNs()),
		"guide.hold_ratio":         div(float64(d.gate[1]+d.gate[2]), gateAll),
		"guide.escape_ratio":       div(float64(d.gate[2]), float64(d.gate[1]+d.gate[2])),
		"guide.gate_p99_us":        us(ph["gate"].Quantile(0.99)),
		"wal.ops_per_fsync":        div(float64(c.mutOps), float64(d.wal[2])),
		"wal.records_per_fsync":    div(float64(d.wal[0]), float64(d.wal[2])),
		"wal.bytes_per_op":         div(float64(d.wal[1]), float64(c.mutOps)),
		"wal.snapshots":            float64(d.wal[3]),
		"wal.ack_p99_us":           us(ph["walack"].Quantile(0.99)),
		"setup.start_s":            c.setup.start,
		"setup.preload_s":          c.setup.preload,
		"setup.warmup_s":           c.setup.warmup,
		"go.alloc_bytes_per_op":    div(float64(d.allocBytes), float64(c.ops)),
		"go.gc_cpu_pct":            100 * div(d.gcCPU, d.allCPU),
		"obs.trace_overhead_pct":   c.overhead,
	}
	for _, cause := range abortCauses {
		m["tl2.aborts_per_commit."+cause.String()] = div(float64(d.byCause[cause]), commits)
	}
	return m
}
