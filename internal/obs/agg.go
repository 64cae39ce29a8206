package obs

import (
	"math/bits"
	"sync/atomic"
)

// Log-bucketed latency layout shared by every histogram in the process —
// these per-phase aggregates and internal/telemetry's Histogram — so the
// two surfaces report comparable quantiles and any two histograms merge
// by adding bucket counts (no rebinning, no allocation on the record
// path). Values are nanoseconds; bucket width grows geometrically with
// subCount sub-buckets per power of two, for ≤25% relative width.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave

	// NumBuckets caps the representable range: the last bucket starts at
	// 7<<33 ns ≈ 60s and absorbs everything longer. STM commit latencies
	// are ns–ms; 60s headroom covers even pathological gate holds.
	NumBuckets = 140
)

// BucketOf maps a non-negative nanosecond value to its bucket index.
// Values 0..3 get exact buckets; beyond that, bucket i covers
// [BucketLow(i), BucketLow(i+1)) with
// BucketLow(i) = (subCount + i%subCount) << (i/subCount - 1).
func BucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	idx := exp*subCount + int(v>>uint(exp)) // v>>exp ∈ [subCount, 2*subCount)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketLow returns the inclusive lower bound (ns) of bucket i.
func BucketLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	exp := i/subCount - 1
	mant := uint64(subCount + i%subCount)
	return mant << uint(exp)
}

// BucketHigh returns the exclusive upper bound (ns) of bucket i, which is
// the next bucket's lower bound. The last bucket is open-ended; doubling
// its lower bound keeps quantile estimates finite while still mapping back
// into the last bucket when snapshots are re-binned for merging.
func BucketHigh(i int) uint64 {
	if i >= NumBuckets-1 {
		return 2 * BucketLow(NumBuckets-1)
	}
	return BucketLow(i + 1)
}

// Per-shard, per-phase latency aggregation. Every finished span feeds it —
// sampling only affects which whole spans are *retained*, never the
// aggregate — so the loadgen tail-attribution table is exact regardless of
// ring sizes.

// phaseHist is one (shard, phase) latency distribution. Writers are the
// worker/acker goroutines; contention is negligible next to the request
// work, so it is unsharded.
type phaseHist struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

func (h *phaseHist) observe(ns uint64) {
	h.counts[BucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// shardAgg is one shard's per-phase histograms plus the whole-span total.
type shardAgg struct {
	phases [NumPhases]phaseHist
	total  phaseHist
}

// observeSpan folds one finished span into the aggregation: each phase's
// summed duration (a span may hold many retry events) and the span total.
// Phases with zero time are not recorded, so a phase's count reflects the
// spans that actually spent time there.
func (a *shardAgg) observeSpan(sp *Span) {
	tot := sp.PhaseTotals()
	for ph, ns := range tot {
		if ns > 0 {
			a.phases[ph].observe(ns)
		}
	}
	a.total.observe(uint64(sp.TotalNs))
}

// HistCounts is a raw bucket dump of one (shard, phase) distribution.
// Bucket i covers [BucketLow(i), BucketHigh(i)) per the shared layout;
// only non-zero buckets are emitted. Raw counts (not quantiles) let a
// scraper diff two snapshots and compute run-local quantiles — that is
// how gstm-loadgen builds its tail-attribution table.
type HistCounts struct {
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets,omitempty"` // pairs: bucket index, count
}

func (h *phaseHist) snapshot() HistCounts {
	var out HistCounts
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, uint64(i), n)
			out.Count += n
		}
	}
	out.SumNs = h.sum.Load()
	return out
}

// Sub subtracts an earlier snapshot of the same distribution, yielding the
// counts accumulated between the two scrapes.
func (h HistCounts) Sub(prev HistCounts) HistCounts {
	prevAt := make(map[uint64]uint64, len(prev.Buckets)/2)
	for i := 0; i+1 < len(prev.Buckets); i += 2 {
		prevAt[prev.Buckets[i]] = prev.Buckets[i+1]
	}
	var out HistCounts
	for i := 0; i+1 < len(h.Buckets); i += 2 {
		b, n := h.Buckets[i], h.Buckets[i+1]
		if n > prevAt[b] {
			d := n - prevAt[b]
			out.Buckets = append(out.Buckets, b, d)
			out.Count += d
		}
	}
	if h.SumNs > prev.SumNs {
		out.SumNs = h.SumNs - prev.SumNs
	}
	return out
}

// Quantile estimates the q-quantile (ns) as the midpoint of the bucket
// where the cumulative count crosses the target.
func (h HistCounts) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i+1 < len(h.Buckets); i += 2 {
		cum += h.Buckets[i+1]
		if cum >= target {
			b := int(h.Buckets[i])
			return (BucketLow(b) + BucketHigh(b)) / 2
		}
	}
	return 0
}

// MeanNs returns the distribution's mean (ns).
func (h HistCounts) MeanNs() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumNs / h.Count
}

// ShardAggSnapshot is one shard's aggregation snapshot.
type ShardAggSnapshot struct {
	Shard  int                   `json:"shard"`
	Phases map[string]HistCounts `json:"phases"`
	Total  HistCounts            `json:"total"`
}

// AggSnapshot is the full per-shard per-phase aggregation, served by
// /debug/trace?format=agg.
type AggSnapshot struct {
	Shards []ShardAggSnapshot `json:"shards"`
}

func (a *shardAgg) snapshot(sh int) ShardAggSnapshot {
	out := ShardAggSnapshot{Shard: sh, Phases: make(map[string]HistCounts, int(NumPhases))}
	for ph := range a.phases {
		if hc := a.phases[ph].snapshot(); hc.Count > 0 {
			out.Phases[Phase(ph).String()] = hc
		}
	}
	out.Total = a.total.snapshot()
	return out
}
