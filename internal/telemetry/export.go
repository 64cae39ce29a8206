package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"gstm/internal/obs"
)

// maxExportedGateStates bounds the per-state series the Prometheus encoding
// emits (states are sorted by visits, so the hottest survive the cut).
const maxExportedGateStates = 16

// WriteJSON writes s as indented JSON.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes s in the Prometheus text exposition format
// (version 0.0.4): counters as *_total, latency histograms as conventional
// cumulative-bucket histogram families in seconds, and per-state gate
// telemetry as labeled series (top states by visits).
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := &errWriter{w: w}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("gstm_tx_starts_total", "Transaction attempt starts, including retries.", s.Starts)
	counter("gstm_tx_commits_total", "Committed transactions.", s.Commits)
	counter("gstm_tx_aborts_total", "Aborted transaction attempts.", s.Aborts)
	counter("gstm_tx_retry_budget_exceeded_total", "Transactions abandoned on a spent retry budget.", s.RetryBudgetExceeded)
	counter("gstm_tx_context_canceled_total", "Transactions abandoned on context cancellation.", s.ContextCanceled)
	counter("gstm_wal_unavailable_total", "Operations refused because the shard's write-ahead log failed.", s.WALUnavailable)
	counter("gstm_tx_parked_total", "Blocking transactions parked on their read set (tx.Retry).", s.Parked)
	counter("gstm_xshard_commits_total", "Cross-shard sub-transactions published atomically (one per participant shard).", s.XShardCommits)
	counter("gstm_xshard_aborts_total", "Cross-shard prepare rounds aborted all-or-nothing (one per participant shard).", s.XShardAborts)
	counter("gstm_clock_cas_fallbacks_total", "GV4 pass-on-failure adoptions of a winner's clock value.", s.ClockCASFallbacks)
	counter("gstm_write_set_spills_total", "Write sets that outgrew the inline fast path.", s.WriteSetSpills)
	counter("gstm_write_filter_false_positives_total", "Write-set filter hits that found no entry.", s.FilterFalsePositives)
	counter("gstm_stripe_collisions_total", "Distinct written locations that shared one stripe lock (striped mode).", s.StripeCollisions)
	counter("gstm_watchdog_trips_total", "Guidance watchdog armed-to-tripped transitions.", s.WatchdogTrips)
	counter("gstm_watchdog_rearms_total", "Guidance watchdog tripped-to-armed transitions.", s.WatchdogRearms)
	counter("gstm_wal_appends_total", "Records appended to the write-ahead log.", s.WALAppends)
	counter("gstm_wal_fsyncs_total", "Physical fsync calls issued by the write-ahead log.", s.WALFsyncs)
	counter("gstm_wal_bytes_total", "Bytes appended to the write-ahead log.", s.WALBytes)
	counter("gstm_wal_snapshots_total", "Completed snapshot+truncate cycles.", s.WALSnapshots)
	counter("gstm_recovery_replayed_records_total", "Log records re-applied during crash recovery.", s.RecoveryReplayed)
	counter("gstm_recovery_duration_ns_total", "Wall time spent in crash recovery, nanoseconds.", s.RecoveryNanos)

	// Every taxonomy label is always written (zero or not) so scrapers and
	// tests see a stable series set; CauseNone is skipped — a counted abort
	// always has a cause.
	fmt.Fprintf(bw, "# HELP gstm_tx_aborts_by_cause_total Aborted attempts by taxonomy cause.\n# TYPE gstm_tx_aborts_by_cause_total counter\n")
	for i := 1; i < int(obs.NumCauses); i++ {
		var v uint64
		if i < len(s.AbortsByCause) {
			v = s.AbortsByCause[i]
		}
		fmt.Fprintf(bw, "gstm_tx_aborts_by_cause_total{cause=%s} %d\n", promQuote(obs.CauseName(i)), v)
	}

	fmt.Fprintf(bw, "# HELP gstm_gate_decisions_total Guidance-gate arrival outcomes.\n# TYPE gstm_gate_decisions_total counter\n")
	fmt.Fprintf(bw, "gstm_gate_decisions_total{outcome=\"passed\"} %d\n", s.GatePassed)
	fmt.Fprintf(bw, "gstm_gate_decisions_total{outcome=\"held\"} %d\n", s.GateHeld)
	fmt.Fprintf(bw, "gstm_gate_decisions_total{outcome=\"escaped\"} %d\n", s.GateEscaped)

	if len(s.Gauges) > 0 {
		written := map[string]bool{}
		for _, g := range s.Gauges {
			if !written[g.Name] {
				typ := "gauge"
				if g.Counter {
					typ = "counter"
				}
				fmt.Fprintf(bw, "# TYPE %s %s\n", g.Name, typ)
				written[g.Name] = true
			}
			if g.Component != "" {
				fmt.Fprintf(bw, "%s{component=%s} %s\n", g.Name, promQuote(g.Component), formatSeconds(g.Value))
			} else {
				fmt.Fprintf(bw, "%s %s\n", g.Name, formatSeconds(g.Value))
			}
		}
	}

	writeBuildInfo(bw)

	histogram(bw, "gstm_commit_latency_seconds", "Commit protocol latency (sampled).", s.CommitLatency)
	histogram(bw, "gstm_validation_latency_seconds", "Read-set validation latency when validation ran (sampled).", s.ValidationLatency)
	histogram(bw, "gstm_gate_hold_seconds", "Time held arrivals spent delayed at the guidance gate.", s.GateHoldTime)
	histogram(bw, "gstm_time_to_first_commit_seconds", "Time from runtime creation or reset to its first commit.", s.TimeToFirstCommit)

	if len(s.Components) > 0 {
		fmt.Fprintf(bw, "# HELP gstm_component_tx_commits_total Committed transactions by component (shard).\n# TYPE gstm_component_tx_commits_total counter\n")
		for _, c := range s.Components {
			fmt.Fprintf(bw, "gstm_component_tx_commits_total{component=%s} %d\n", promQuote(c.Label), c.Commits)
		}
		fmt.Fprintf(bw, "# HELP gstm_component_tx_aborts_total Aborted transaction attempts by component (shard).\n# TYPE gstm_component_tx_aborts_total counter\n")
		for _, c := range s.Components {
			fmt.Fprintf(bw, "gstm_component_tx_aborts_total{component=%s} %d\n", promQuote(c.Label), c.Aborts)
		}
		fmt.Fprintf(bw, "# HELP gstm_component_gate_decisions_total Guidance-gate arrival outcomes by component (shard).\n# TYPE gstm_component_gate_decisions_total counter\n")
		for _, c := range s.Components {
			fmt.Fprintf(bw, "gstm_component_gate_decisions_total{component=%s,outcome=\"passed\"} %d\n", promQuote(c.Label), c.GatePassed)
			fmt.Fprintf(bw, "gstm_component_gate_decisions_total{component=%s,outcome=\"held\"} %d\n", promQuote(c.Label), c.GateHeld)
			fmt.Fprintf(bw, "gstm_component_gate_decisions_total{component=%s,outcome=\"escaped\"} %d\n", promQuote(c.Label), c.GateEscaped)
		}
		compCounter := func(name, help string, v func(Snapshot) uint64) {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, c := range s.Components {
				fmt.Fprintf(bw, "%s{component=%s} %d\n", name, promQuote(c.Label), v(c))
			}
		}
		compCounter("gstm_component_wal_appends_total", "WAL records appended by component (shard).", func(c Snapshot) uint64 { return c.WALAppends })
		compCounter("gstm_component_wal_fsyncs_total", "WAL fsync calls by component (shard).", func(c Snapshot) uint64 { return c.WALFsyncs })
		compCounter("gstm_component_wal_bytes_total", "WAL bytes appended by component (shard).", func(c Snapshot) uint64 { return c.WALBytes })
		compCounter("gstm_component_recovery_replayed_records_total", "Recovery-replayed records by component (shard).", func(c Snapshot) uint64 { return c.RecoveryReplayed })
		compCounter("gstm_component_recovery_duration_ns_total", "Recovery wall time by component (shard), nanoseconds.", func(c Snapshot) uint64 { return c.RecoveryNanos })
	}

	if len(s.GateStates) > 0 {
		fmt.Fprintf(bw, "# HELP gstm_gate_state_visits_total Gate arrivals per automaton state (top states).\n# TYPE gstm_gate_state_visits_total counter\n")
		top := s.GateStates
		if len(top) > maxExportedGateStates {
			top = top[:maxExportedGateStates]
		}
		for _, g := range top {
			fmt.Fprintf(bw, "gstm_gate_state_visits_total{state=%s} %d\n", promQuote(g.State), g.Visits)
		}
		fmt.Fprintf(bw, "# HELP gstm_gate_state_holds_total Gate holds per automaton state (top states).\n# TYPE gstm_gate_state_holds_total counter\n")
		for _, g := range top {
			fmt.Fprintf(bw, "gstm_gate_state_holds_total{state=%s} %d\n", promQuote(g.State), g.Holds)
		}
		fmt.Fprintf(bw, "# HELP gstm_gate_state_escapes_total Gate K-exhausted escapes per automaton state (top states).\n# TYPE gstm_gate_state_escapes_total counter\n")
		for _, g := range top {
			fmt.Fprintf(bw, "gstm_gate_state_escapes_total{state=%s} %d\n", promQuote(g.State), g.Escapes)
		}
	}
	return bw.err
}

// buildInfoLine is the gstm_build_info series, computed once: the
// conventional always-1 gauge whose labels carry the build's identity.
var buildInfoLine = sync.OnceValue(func() string {
	goVer, path, rev, modified := "unknown", "unknown", "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVer = bi.GoVersion
		path = bi.Main.Path
		if path == "" {
			path = bi.Path
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
	}
	return fmt.Sprintf("gstm_build_info{goversion=%s,path=%s,revision=%s,modified=%s} 1\n",
		promQuote(goVer), promQuote(path), promQuote(rev), promQuote(modified))
})

func writeBuildInfo(w io.Writer) {
	fmt.Fprintf(w, "# HELP gstm_build_info Build identity; the value is always 1.\n# TYPE gstm_build_info gauge\n")
	io.WriteString(w, buildInfoLine())
}

// histogram writes one histogram family with cumulative buckets in seconds.
func histogram(w io.Writer, name, help string, h HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatSeconds(b.Le.Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatSeconds(h.Sum.Seconds()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// formatSeconds renders a seconds value compactly without exponent noise
// for the common sub-second range.
func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', 9, 64)
}

// promQuote renders a label value with Prometheus escaping.
func promQuote(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// errWriter latches the first write error so the exposition code can stay
// free of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
