package telemetry

// Exposition tests for the variance-observatory additions: the abort-cause
// taxonomy series, the WAL-unavailable counter, scrape-time gauges, and the
// build-info series.

import (
	"bytes"
	"strings"
	"testing"

	"gstm/internal/obs"
)

func TestWritePrometheusAbortCauseTaxonomy(t *testing.T) {
	m := NewDetached("causes")
	m.TxStart(0)
	m.TxAbort(0, obs.CauseLockBusy)
	m.TxAbort(0, obs.CauseLockBusy)
	m.TxAbort(2, obs.CauseWALUnavailable)
	m.WALRefused(3)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gstm_tx_aborts_by_cause_total{cause="lock-busy"} 2`,
		`gstm_tx_aborts_by_cause_total{cause="wal-unavailable"} 1`,
		// Untouched causes still emit a stable zero series.
		`gstm_tx_aborts_by_cause_total{cause="read-validation"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="clock-cas"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="gate-timeout"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="retry-budget"} 0`,
		"gstm_wal_unavailable_total 1",
		"gstm_tx_aborts_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// A counted abort always has a cause; "none" must not be a series.
	if strings.Contains(out, `cause="none"`) {
		t.Errorf("exposition emits a cause=\"none\" series\n%s", out)
	}
	// Every taxonomy label appears exactly once.
	for i := 1; i < int(obs.NumCauses); i++ {
		label := `cause="` + obs.CauseName(i) + `"`
		if n := strings.Count(out, label); n != 1 {
			t.Errorf("label %s appears %d times, want 1", label, n)
		}
	}
}

func TestWritePrometheusGaugesAndBuildInfo(t *testing.T) {
	unregQueue := RegisterGauge("gstm_wal_queue_depth", "shard0", func() float64 { return 7 })
	unregBacklog := RegisterGauge("gstm_acker_backlog", "server", func() float64 { return 3 })
	defer unregBacklog()

	// Gauges are scrape-time readings attached by the registry-level Gather
	// (they span Metrics instances), not by a single Metrics.Snapshot.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Gather()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gstm_wal_queue_depth gauge",
		`gstm_wal_queue_depth{component="shard0"} 7`,
		"# TYPE gstm_acker_backlog gauge",
		`gstm_acker_backlog{component="server"} 3`,
		"# TYPE gstm_build_info gauge",
		"gstm_build_info{goversion=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}

	// Unregistering removes the series from the next scrape: a shut-down
	// server's dead closures must not linger.
	unregQueue()
	buf.Reset()
	if err := WritePrometheus(&buf, Gather()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gstm_wal_queue_depth") {
		t.Errorf("unregistered gauge still exported:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "gstm_acker_backlog") {
		t.Errorf("unrelated gauge vanished with the unregistered one:\n%s", buf.String())
	}
}

func TestWritePrometheusRegisteredCounter(t *testing.T) {
	var n uint64 = 2
	unreg := RegisterCounter("gstm_conn_evictions_total", "server", func() uint64 { return n })
	defer unreg()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Gather()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE gstm_conn_evictions_total counter",
		`gstm_conn_evictions_total{component="server"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, buf.String())
		}
	}
}
