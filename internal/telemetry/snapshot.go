package telemetry

import (
	"sort"
	"time"

	"gstm/internal/obs"
)

// HistBucket is one non-empty histogram bucket: Count observations at most
// Le (the bucket's exclusive upper bound, reported inclusively in the
// Prometheus encoding as is conventional).
type HistBucket struct {
	Le    time.Duration `json:"le_ns"`
	Count uint64        `json:"count"`
}

// HistSnapshot is a merged, point-in-time view of a latency histogram.
type HistSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`

	// Buckets holds the non-empty buckets ascending by bound. Because every
	// Histogram shares one fixed bucket layout, snapshots merge exactly.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observed duration.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// merge combines two fixed-layout histogram snapshots: bucket counts add,
// quantiles are recomputed from the merged buckets.
func (h HistSnapshot) merge(o HistSnapshot) HistSnapshot {
	if o.Count == 0 {
		return h
	}
	if h.Count == 0 {
		return o
	}
	var merged [obs.NumBuckets]uint64
	for _, hs := range []HistSnapshot{h, o} {
		for _, b := range hs.Buckets {
			merged[obs.BucketOf(uint64(b.Le-1))] += b.Count
		}
	}
	out := HistSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum, Max: h.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	var total uint64
	for _, n := range merged {
		total += n
	}
	if total > 0 {
		out.P50 = quantile(&merged, total, 0.50, out.Max)
		out.P95 = quantile(&merged, total, 0.95, out.Max)
		out.P99 = quantile(&merged, total, 0.99, out.Max)
	}
	for b, n := range merged {
		if n > 0 {
			out.Buckets = append(out.Buckets, HistBucket{Le: time.Duration(obs.BucketHigh(b)), Count: n})
		}
	}
	return out
}

// GateStateSnapshot is the gate telemetry of one automaton state.
type GateStateSnapshot struct {
	State   string `json:"state"`
	Visits  uint64 `json:"visits"`
	Holds   uint64 `json:"holds"`
	Escapes uint64 `json:"escapes"`
}

// Snapshot is the stable exported view of the telemetry layer: every
// counter, histogram, gate-state tally and recent event, merged across
// shards (and across components, for Gather). It marshals directly to the
// JSON encoding the /debug/vars endpoint serves.
type Snapshot struct {
	Label   string    `json:"label"`
	TakenAt time.Time `json:"taken_at"`

	Starts              uint64 `json:"tx_starts"`
	Commits             uint64 `json:"tx_commits"`
	Aborts              uint64 `json:"tx_aborts"`
	RetryBudgetExceeded uint64 `json:"tx_retry_budget_exceeded"`
	ContextCanceled     uint64 `json:"tx_context_canceled"`
	WALUnavailable      uint64 `json:"wal_unavailable"`
	Parked              uint64 `json:"tx_parked"`

	// XShardCommits/XShardAborts count cross-shard commit-protocol
	// outcomes per participant shard (a k-shard transaction counts k).
	XShardCommits uint64 `json:"xshard_commits"`
	XShardAborts  uint64 `json:"xshard_aborts"`

	// AbortsByCause indexes by obs.Cause (length obs.NumCauses when set);
	// obs.CauseName maps indexes to labels.
	AbortsByCause []uint64 `json:"tx_aborts_by_cause,omitempty"`

	ClockCASFallbacks    uint64 `json:"clock_cas_fallbacks"`
	WriteSetSpills       uint64 `json:"write_set_spills"`
	FilterFalsePositives uint64 `json:"write_filter_false_positives"`
	StripeCollisions     uint64 `json:"stripe_collisions"`

	GatePassed  uint64 `json:"gate_passed"`
	GateHeld    uint64 `json:"gate_held"`
	GateEscaped uint64 `json:"gate_escaped"`

	WatchdogTrips  uint64 `json:"watchdog_trips"`
	WatchdogRearms uint64 `json:"watchdog_rearms"`

	WALAppends       uint64 `json:"wal_appends"`
	WALFsyncs        uint64 `json:"wal_fsyncs"`
	WALBytes         uint64 `json:"wal_bytes"`
	WALSnapshots     uint64 `json:"wal_snapshots"`
	RecoveryReplayed uint64 `json:"recovery_replayed_records"`
	RecoveryNanos    uint64 `json:"recovery_duration_ns"`

	CommitLatency     HistSnapshot `json:"commit_latency"`
	ValidationLatency HistSnapshot `json:"validation_latency"`
	GateHoldTime      HistSnapshot `json:"gate_hold"`
	TimeToFirstCommit HistSnapshot `json:"time_to_first_commit"`

	GateStates []GateStateSnapshot `json:"gate_states,omitempty"`
	Events     []Event             `json:"events,omitempty"`

	// Gauges are the scrape-time readings (see RegisterGauge); only the
	// Gather aggregate carries them.
	Gauges []GaugeSample `json:"gauges,omitempty"`

	// Components holds the per-label breakdown when this snapshot is a
	// Gather aggregate: one merged snapshot per distinct registration
	// label ("shard0", "shard1", …), sorted by label. Component snapshots
	// carry counters, histograms and gate-state tallies but not events —
	// the aggregate's ring already interleaves every component's events.
	Components []Snapshot `json:"components,omitempty"`
}

// AbortRatio returns aborts per commit.
func (s Snapshot) AbortRatio() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// Merge folds o into s: counters add, histograms merge bucket-wise,
// gate-state tallies combine by state key, and events interleave by time
// (keeping the most recent DefaultRingCapacity).
func (s *Snapshot) Merge(o Snapshot) {
	s.Starts += o.Starts
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.RetryBudgetExceeded += o.RetryBudgetExceeded
	s.ContextCanceled += o.ContextCanceled
	s.WALUnavailable += o.WALUnavailable
	s.Parked += o.Parked
	s.XShardCommits += o.XShardCommits
	s.XShardAborts += o.XShardAborts
	if len(o.AbortsByCause) > 0 {
		if len(s.AbortsByCause) < len(o.AbortsByCause) {
			grown := make([]uint64, len(o.AbortsByCause))
			copy(grown, s.AbortsByCause)
			s.AbortsByCause = grown
		}
		for i, n := range o.AbortsByCause {
			s.AbortsByCause[i] += n
		}
	}
	s.ClockCASFallbacks += o.ClockCASFallbacks
	s.WriteSetSpills += o.WriteSetSpills
	s.FilterFalsePositives += o.FilterFalsePositives
	s.StripeCollisions += o.StripeCollisions
	s.GatePassed += o.GatePassed
	s.GateHeld += o.GateHeld
	s.GateEscaped += o.GateEscaped
	s.WatchdogTrips += o.WatchdogTrips
	s.WatchdogRearms += o.WatchdogRearms
	s.WALAppends += o.WALAppends
	s.WALFsyncs += o.WALFsyncs
	s.WALBytes += o.WALBytes
	s.WALSnapshots += o.WALSnapshots
	s.RecoveryReplayed += o.RecoveryReplayed
	s.RecoveryNanos += o.RecoveryNanos
	s.CommitLatency = s.CommitLatency.merge(o.CommitLatency)
	s.ValidationLatency = s.ValidationLatency.merge(o.ValidationLatency)
	s.GateHoldTime = s.GateHoldTime.merge(o.GateHoldTime)
	s.TimeToFirstCommit = s.TimeToFirstCommit.merge(o.TimeToFirstCommit)

	if len(o.GateStates) > 0 {
		byState := make(map[string]GateStateSnapshot, len(s.GateStates)+len(o.GateStates))
		for _, g := range s.GateStates {
			byState[g.State] = g
		}
		for _, g := range o.GateStates {
			cur := byState[g.State]
			cur.State = g.State
			cur.Visits += g.Visits
			cur.Holds += g.Holds
			cur.Escapes += g.Escapes
			byState[g.State] = cur
		}
		s.GateStates = s.GateStates[:0]
		for _, g := range byState {
			s.GateStates = append(s.GateStates, g)
		}
		sort.Slice(s.GateStates, func(i, j int) bool {
			if s.GateStates[i].Visits != s.GateStates[j].Visits {
				return s.GateStates[i].Visits > s.GateStates[j].Visits
			}
			return s.GateStates[i].State < s.GateStates[j].State
		})
	}

	if len(o.Events) > 0 {
		s.Events = append(s.Events, o.Events...)
		sort.SliceStable(s.Events, func(i, j int) bool {
			return s.Events[i].At.Before(s.Events[j].At)
		})
		if n := len(s.Events); n > DefaultRingCapacity {
			s.Events = s.Events[n-DefaultRingCapacity:]
		}
	}
}
