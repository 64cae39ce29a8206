// Command benchmark is gstm's serving benchmark: for each workload it boots
// an in-process server, drives it in a closed loop over two connections,
// checks the server's outputs and prints every end-to-end metric by name
// and unit; with --trace 1 it instead prints the per-layer metrics from a
// run whose requests carry the protocol trace bit. README.md gives the
// workloads and the metrics. Run it through run.sh from the repository
// root:
//
//	bash benchmark/run.sh                       # every workload, both modes
//	bash benchmark/run.sh --workload read-mostly --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON result; exit status 1
// means an output check failed, 2 that the run could not complete.
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gstm/internal/server"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	commit   string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same generated operations")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics; 1: per-layer metrics from a traced run; with all, both")
	flag.StringVar(&o.commit, "commit", "unknown", "commit being measured, recorded with the result")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for write-ahead logs and trace files")
	flag.Parse()
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		fatal(errors.New("want --seconds >= 1 and --trace 0 or 1"))
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	if o.trace < 0 {
		fatal(errors.New("--trace 0 or 1 is required with a single workload"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	res, err := runOne(w, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload untraced and then traced, each in its own
// process so one run's memory peak and heap never reach the next.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	traces := []int{0, 1}
	if o.trace >= 0 {
		traces = []int{o.trace}
	}
	code := 0
	for _, w := range workloads {
		for _, tr := range traces {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(tr),
				"--commit", o.commit, "--out", o.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d: %v\n", w.name, tr, err)
				code = 1
			}
		}
	}
	return code
}

// runOne sets up w's server, measures it and checks its outputs.
func runOne(w *workload, o options) (result, error) {
	b := &bench{w: w, seed: o.seed, outDir: o.out}
	defer func() {
		if err := b.tearDown(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: teardown:", err)
		}
	}()
	printEnv(w, o)
	setup, err := b.setUpAll()
	if err != nil {
		return result{}, err
	}
	total := time.Duration(o.seconds) * time.Second
	var res result
	if o.trace == 0 {
		res, err = b.runUntraced(total, setup)
	} else {
		res, err = b.runTraced(total, setup, o)
	}
	if err != nil {
		return result{}, err
	}
	if err := b.verify(); err != nil {
		fmt.Println("check FAILED:", err)
		res.Correct = false
	} else {
		fmt.Println("checks passed")
	}
	return res, nil
}

func printEnv(w *workload, o options) {
	env := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": o.commit,
		"loop": fmt.Sprintf("closed, %d connections x %d callers", numConns, callersPerConn),
	}
	line, _ := json.Marshal(map[string]any{"env": env}) // map of plain values: cannot fail
	fmt.Println(string(line))
}

// untracedSegs splits total into equal windows.
func untracedSegs(total time.Duration) []segment {
	segs := make([]segment, windows)
	for i := range segs {
		segs[i].end = total * time.Duration(i+1) / windows
	}
	return segs
}

// runUntraced measures the end-to-end metrics.
func (b *bench) runUntraced(total time.Duration, setup setupTimes) (result, error) {
	segs := untracedSegs(total)
	lr, err := b.measure(segs, nil)
	if err != nil {
		return result{}, err
	}
	e2e, err := endToEnd(lr, segs)
	if err != nil {
		return result{}, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	ms := map[string]metric{
		"throughput_ops_s": {e2e.throughput, "ops/s"},
		"p50_us":           {e2e.p50.valUs, "us"},
		"p99_us":           {e2e.p99.valUs, "us"},
		"read_p99_us":      {e2e.readP99.valUs, "us"},
		"write_p99_us":     {e2e.writeP99.valUs, "us"},
		"setup_s":          {setup.total, "s"},
		"mem_peak_mb":      {peak, "MiB"},
	}
	fmt.Printf("%-18s %14s  %-6s  %s\n", "end-to-end", "value", "unit", "basis")
	row := func(name string, m metric, basis string) {
		fmt.Printf("%-18s %14.4f  %-6s  %s\n", name, m.Value, m.Unit, basis)
	}
	perWin := func(ws []float64) string {
		return fmt.Sprintf("best of %d windows %.4g", len(ws), ws)
	}
	pctBasis := func(p pctStat) string {
		return fmt.Sprintf("p%.4g of %d samples; %s", p.pct, p.n, perWin(p.windows))
	}
	row("throughput_ops_s", ms["throughput_ops_s"], fmt.Sprintf("%d ops; %s", lr.answered+lr.failed, perWin(e2e.tputWindows)))
	row("p50_us", ms["p50_us"], pctBasis(e2e.p50))
	row("p99_us", ms["p99_us"], pctBasis(e2e.p99))
	row("read_p99_us", ms["read_p99_us"], pctBasis(e2e.readP99))
	row("write_p99_us", ms["write_p99_us"], pctBasis(e2e.writeP99))
	if e2e.txnP99.n > 0 {
		row("txn_p99_us", metric{e2e.txnP99.valUs, "us"}, pctBasis(e2e.txnP99))
	}
	row("fail_ratio", metric{div(float64(lr.failed), float64(lr.sent)), "ratio"},
		fmt.Sprintf("%d failed of %d attempted", lr.failed, lr.sent))
	row("setup_s", ms["setup_s"], fmt.Sprintf("median of %d setups", setupReps))
	row("mem_peak_mb", ms["mem_peak_mb"], "peak RSS of the process")
	return result{Correct: true, Attempted: lr.sent, Failed: lr.failed, Metrics: ms}, nil
}

// e2eFigures are the end-to-end metrics of one untraced run.
type e2eFigures struct {
	throughput                  float64
	tputWindows                 []float64
	p50, p99, readP99, writeP99 pctStat
	txnP99                      pctStat
}

// endToEnd takes each figure per window and reports its best window: the
// highest throughput, the lowest latency. Noise from other tenants of the
// machine only ever slows a window, and on a shared host it comes in
// stretches longer than half a run, which a median of windows would
// follow; the best window estimates the program's own speed. A
// percentile names the lowest percentile a window used (see
// tailPercentile) and the samples across all windows.
func endToEnd(lr loadResult, segs []segment) (e2eFigures, error) {
	var tputs []float64
	pcts := map[string][]pctStat{}
	add := func(name string, h *latHist, want float64) error {
		p, err := percentileUs(h, want)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		pcts[name] = append(pcts[name], p)
		return nil
	}
	prev := time.Duration(0)
	for i := range lr.segs {
		s := &lr.segs[i]
		tputs = append(tputs, float64(s.done)/(segs[i].end-prev).Seconds())
		prev = segs[i].end
		var all latHist
		for k := range s.lat {
			all.merge(&s.lat[k])
		}
		err := errors.Join(
			add("p50", &all, 50),
			add("p99", &all, 99),
			add("read_p99", &s.lat[kindRead], 99),
			add("write_p99", &s.lat[kindWrite], 99),
		)
		if s.lat[kindTxn].n > 0 {
			err = errors.Join(err, add("txn_p99", &s.lat[kindTxn], 99))
		}
		if err != nil {
			return e2eFigures{}, err
		}
	}
	pick := func(name string) pctStat {
		out := pctStat{pct: 100, valUs: math.Inf(1)}
		for _, p := range pcts[name] {
			out.windows = append(out.windows, p.valUs)
			out.valUs = math.Min(out.valUs, p.valUs)
			out.n += p.n
			out.pct = math.Min(out.pct, p.pct)
		}
		return out
	}
	best := 0.0
	for _, t := range tputs {
		best = math.Max(best, t)
	}
	return e2eFigures{
		throughput: best, tputWindows: tputs,
		p50: pick("p50"), p99: pick("p99"),
		readP99: pick("read_p99"), writeP99: pick("write_p99"), txnP99: pick("txn_p99"),
	}, nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// tracedSegs alternates untraced and traced stretches in ABBA order, so
// slow drift over the run weighs on both sides alike.
func tracedSegs(total time.Duration) []segment {
	pattern := []bool{false, true, true, false, false, true, true, false}
	segs := make([]segment, len(pattern))
	for i, tr := range pattern {
		segs[i] = segment{end: total * time.Duration(i+1) / time.Duration(len(pattern)), traced: tr}
	}
	return segs
}

// runTraced measures the per-layer metrics: layer counters are diffed
// around each traced stretch and summed; untraced stretches give the
// throughput the tracing overhead is measured against.
func (b *bench) runTraced(total time.Duration, setup setupTimes, o options) (result, error) {
	ctl, err := server.Dial(b.srv.Addr().String())
	if err != nil {
		return result{}, err
	}
	defer ctl.Close()
	segs := tracedSegs(total)
	snaps := make([]layerSnap, len(segs)+1)
	lr, err := b.measure(segs, func(i int) error {
		var err error
		snaps[i], err = readLayers(b.srv, ctl)
		return err
	})
	if err != nil {
		return result{}, err
	}
	var d layerSnap
	var doneOn, doneOff uint64
	var durOn, durOff time.Duration
	prev := time.Duration(0)
	for i, s := range segs {
		dur := s.end - prev
		prev = s.end
		if s.traced {
			d = d.plus(snaps[i+1].delta(snaps[i]))
			doneOn += lr.segs[i].done
			durOn += dur
		} else {
			doneOff += lr.segs[i].done
			durOff += dur
		}
	}
	cs := clientSide{setup: setup}
	var rtt float64
	for _, sp := range lr.spans {
		if !statusOK(sp.status) {
			continue
		}
		cs.ops++
		rtt += float64(sp.respNs - sp.sendNs)
		if sp.op != server.OpGet && sp.status == server.StatusOK {
			cs.mutOps++
		}
	}
	cs.rttMeanUs = div(rtt, float64(cs.ops)) / 1e3
	on, off := float64(doneOn)/durOn.Seconds(), float64(doneOff)/durOff.Seconds()
	cs.overhead = 100 * (1 - div(on, off))

	lm := layerMetrics(d, cs)
	ms := make(map[string]metric, len(lm))
	for _, pl := range perLayer {
		v, ok := lm[pl.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s not computed", pl.name)
		}
		ms[pl.name] = metric{v, pl.unit}
	}
	fmt.Printf("traced %d ops at %.0f ops/s; untraced stretches %.0f ops/s\n", cs.ops, on, off)
	fmt.Print(server.FormatTailTable(d.agg))
	fmt.Printf("%-38s %14s  %s\n", "per-layer", "value", "unit")
	for _, pl := range perLayer {
		fmt.Printf("%-38s %14.4f  %s\n", pl.name, ms[pl.name].Value, pl.unit)
	}
	path, err := b.writeTrace(lr.spans, o)
	if err != nil {
		return result{}, err
	}
	fmt.Println("trace written to", path)
	return result{Correct: true, Attempted: lr.sent, Failed: lr.failed, Metrics: ms}, nil
}

// perLayer lists the per-layer metrics in report order, with units.
var perLayer = []struct{ name, unit string }{
	{"client.rtt_mean_us", "us"},
	{"client.outside_server_us", "us"},
	{"server.span_mean_us", "us"},
	{"server.unattributed_us", "us"},
	{"server.decode_mean_us", "us"},
	{"server.queue_p50_us", "us"},
	{"server.queue_p99_us", "us"},
	{"server.ops_per_batch", "ops/batch"},
	{"shard.subtxns_per_batch", "subtxns/batch"},
	{"shard.xshard_abort_ratio", "ratio"},
	{"shard.xprepare_spans", "count"},
	{"shard.xprepare_p99_us", "us"},
	{"shard.xpublish_p99_us", "us"},
	{"tl2.abort_ratio", "ratio"},
	{"tl2.aborts_per_commit.read-validation", "aborts/commit"},
	{"tl2.aborts_per_commit.lock-busy", "aborts/commit"},
	{"tl2.aborts_per_commit.clock-cas", "aborts/commit"},
	{"tl2.aborts_per_commit.cross-shard-validation", "aborts/commit"},
	{"tl2.retry_share", "ratio"},
	{"tl2.retry_p99_us", "us"},
	{"tl2.lock_mean_us", "us"},
	{"tl2.validate_mean_us", "us"},
	{"tl2.publish_mean_us", "us"},
	{"guide.hold_ratio", "ratio"},
	{"guide.escape_ratio", "ratio"},
	{"guide.gate_p99_us", "us"},
	{"wal.ops_per_fsync", "ops/fsync"},
	{"wal.records_per_fsync", "records/fsync"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.snapshots", "count"},
	{"wal.ack_p99_us", "us"},
	{"setup.start_s", "s"},
	{"setup.preload_s", "s"},
	{"setup.warmup_s", "s"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cpu_pct", "%"},
	{"obs.trace_overhead_pct", "%"},
}

// writeTrace writes the setup-stage spans and every traced operation's
// span as gzipped CSV after a comment line naming the run: name, conn,
// id, status, start_ns, end_ns (ns since the process started; conn -1
// marks a setup stage, whose id is its repetition).
func (b *bench) writeTrace(spans []opSpan, o options) (string, error) {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// One file per workload, replaced by its next traced run: a file per
	// seed would pile up tens of megabytes per run.
	path := filepath.Join(dir, b.w.name+".csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // constant valid level
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "# workload %s seed %d commit %s\n", b.w.name, o.seed, o.commit)
	fmt.Fprintln(bw, "name,conn,id,status,start_ns,end_ns")
	for _, s := range b.stages {
		fmt.Fprintf(bw, "setup.%s,-1,%d,0,%d,%d\n", s.name, s.rep, s.startNs, s.endNs)
	}
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", opName(s.op), s.conn, s.id, s.status, s.sendNs, s.respNs)
	}
	err = errors.Join(bw.Flush(), zw.Close(), f.Close())
	return path, err
}

func opName(op server.Op) string {
	switch op {
	case server.OpGet:
		return "get"
	case server.OpPut:
		return "put"
	case server.OpAdd:
		return "add"
	case server.OpDel:
		return "del"
	case server.OpTxn:
		return "txn"
	}
	return "op" + strconv.Itoa(int(op))
}
