// Command gstm-loadgen drives load against a running gstm-server and
// measures service-level run-to-run variance guided vs unguided: R
// interleaved runs per mode reporting throughput, latency quantiles and
// the variance figures (per-connection completion spread, throughput and
// p95 CV). With -out it writes the comparison as BENCH_server.json. With
// -once it performs a single run in whatever mode the server is in (used
// by CI's server-smoke job), reporting aggregate and — against a sharded
// server — per-shard completion spread; standalone runs can mix transfers
// into any load via -transfer-pct and assert conservation with
// -check-balance.
//
// With -sweep it ignores -addr, boots in-process servers itself and runs
// one of the committed sweeps, all in one record schema (interleaved
// rounds, median and quartiles, summed server counters, environment
// block):
//
//	-sweep shard   shard counts 1/2/4/8 x workloads, guided vs unguided (BENCH_shard.json)
//	-sweep wal     WAL fsync windows vs a non-durable baseline (BENCH_wal.json)
//	-sweep xshard  cross-shard transfer percentages 0-50 (BENCH_xshard.json)
//	-sweep speed   the STM engine's hot path, per-location vs striped lock
//	               tables across workloads and GOMAXPROCS (BENCH_speed.json;
//	               its own 17 rounds, -runs does not apply)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gstm/internal/server"
	"gstm/internal/speedbench"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7900", "gstm-server address")
		conns    = flag.Int("conns", 16, "concurrent client connections")
		duration = flag.Duration("duration", 2*time.Second, "length of each measured run (timed mode)")
		opsPer   = flag.Int("ops", 4000, "fixed-work mode: ops per connection per run (0 = timed mode)")
		runs     = flag.Int("runs", 5, "measured runs per mode or sweep point (R)")
		keys     = flag.Int("keys", 128, "key-space size")
		skew     = flag.Float64("skew", 5, "key skew exponent (1 = uniform; larger = hotter head)")
		getPct   = flag.Int("get", 10, "percent GET")
		putPct   = flag.Int("put", 5, "percent PUT")
		delPct   = flag.Int("del", 5, "percent DEL (remainder is ADD)")
		seed     = flag.Uint64("seed", 0xC0FFEE, "workload seed")
		window   = flag.Int("window", 0, "pipeline depth per connection (0/1 = synchronous request/response)")
		once     = flag.Bool("once", false, "single run in the server's current mode; skip the guided/unguided comparison")
		sweep    = flag.String("sweep", "", "run an in-process sweep instead of the guided/unguided comparison (ignores -addr): shard | wal | xshard | speed")
		xferPct  = flag.Int("transfer-pct", 0, "percent of ops issued as two-key cross-shard transfers (one OpTxn each, zero-sum)")
		balance  = flag.Bool("check-balance", false, "after the run, sum the signed key-space total and fail unless it is zero (transfers conserve balance)")
		ledger   = flag.String("ledger", "", "drive an add-only load and write the acked/in-flight ledger JSON here; tolerates the server dying mid-run (kill-and-recover chaos)")
		verify   = flag.String("verify-ledger", "", "check a recovered server against a ledger file: acked <= value <= acked+inflight for every key")
		out      = flag.String("out", "", "write the report as JSON to this file (BENCH_server.json, or with -sweep BENCH_shard.json / BENCH_wal.json / BENCH_xshard.json / BENCH_speed.json)")
		trace    = flag.Bool("trace", false, "set the protocol trace-request bit on every op (server retains a span per op on /debug/trace)")
		subs     = flag.Int("subscribers", 0, "long-poll watch connections riding alongside the load (each chains OpWatch on one hot key; wakeups reported as sub_wakeups)")
		traceTab = flag.String("trace-addr", "", "server telemetry address (host:port): scrape /debug/trace?format=agg around the run and print the per-shard per-phase tail-attribution table")
	)
	flag.Parse()

	if *sweep != "" {
		rep, err := runSweep(*sweep, *runs)
		if err != nil {
			fatal(err)
		}
		writeReport(*out, rep)
		return
	}
	if *verify != "" {
		led, err := server.ReadLedger(*verify)
		if err != nil {
			fatal(err)
		}
		violations, err := server.VerifyLedger(*addr, led)
		if err != nil {
			fatal(err)
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "gstm-loadgen: VIOLATION:", v)
			}
			fatal(fmt.Errorf("%d ledger violations: recovery lost acknowledged writes", len(violations)))
		}
		fmt.Printf("ledger verified: %d acked keys, %d in-flight keys, no violations\n",
			len(led.Acked), len(led.Inflight))
		return
	}

	load := server.LoadConfig{
		Addr:        *addr,
		Conns:       *conns,
		Duration:    *duration,
		OpsPerConn:  *opsPer,
		Keys:        *keys,
		Skew:        *skew,
		GetPct:      *getPct,
		PutPct:      *putPct,
		DelPct:      *delPct,
		TransferPct: *xferPct,
		Seed:        *seed,
		Window:      *window,
		Trace:       *trace,
		Subscribers: *subs,
	}

	// Tail attribution: scrape the observatory's aggregation before the
	// measured work and again after it, so the printed table covers exactly
	// this invocation's requests.
	var aggBefore server.TraceAgg
	if *traceTab != "" {
		var err error
		if aggBefore, err = server.FetchTraceAgg(*traceTab); err != nil {
			fatal(fmt.Errorf("trace scrape (%s): %w", *traceTab, err))
		}
	}
	printTail := func() {
		if *traceTab == "" {
			return
		}
		aggAfter, err := server.FetchTraceAgg(*traceTab)
		if err != nil {
			fatal(fmt.Errorf("trace scrape (%s): %w", *traceTab, err))
		}
		fmt.Println("tail attribution (this run; phase latencies per shard):")
		fmt.Print(server.FormatTailTable(server.DiffTraceAgg(aggAfter, aggBefore)))
	}

	if *ledger != "" {
		led := server.RunLedgerLoad(load)
		if err := led.WriteFile(*ledger); err != nil {
			fatal(err)
		}
		fmt.Printf("ledger: %d ops acked over %d keys, %d errors, %d in-flight keys -> %s\n",
			led.Ops, len(led.Acked), led.Errors, len(led.Inflight), *ledger)
		return
	}

	if *once {
		// Against a sharded server, attribute traffic per shard and report
		// the per-shard completion spread next to the aggregate one.
		if ctl, err := server.Dial(*addr); err == nil {
			if n, err := ctl.Info(server.InfoShards); err == nil {
				load.Shards = int(n)
			}
			ctl.Close()
		}
		st, err := server.RunLoad(load)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ops=%d errors=%d throughput=%.0f ops/s %s\n", st.Ops, st.Errors, st.Throughput, st.Latency())
		if len(st.ShardOps) > 0 {
			fmt.Printf("spread: conns %.2f%%  shards %.2f%%  per-shard ops %v\n",
				st.ConnSpreadPct, st.ShardSpreadPct, st.ShardOps)
		}
		if st.Transfers > 0 {
			fmt.Printf("transfers: %d two-key atomic transfers committed\n", st.Transfers)
		}
		if load.Subscribers > 0 {
			fmt.Printf("subscribers: %d long-poll watchers, %d wakeups\n",
				load.Subscribers, st.SubWakeups)
		}
		printTail()
		if st.Ops == 0 {
			fatal(fmt.Errorf("no operations completed"))
		}
		if *balance {
			total, err := server.VerifyBalance(*addr, *keys)
			if err != nil {
				fatal(err)
			}
			if total != 0 {
				fatal(fmt.Errorf("balance check: signed key-space total %d, want 0 (a transfer tore)", total))
			}
			fmt.Printf("balance check: key-space total 0 across %d keys\n", *keys)
		}
		return
	}

	work := fmt.Sprintf("%d ops/conn", *opsPer)
	if *opsPer <= 0 {
		work = (*duration).String()
	}
	fmt.Fprintf(os.Stderr, "gstm-loadgen: %d runs/mode x %s, %d conns, %d keys (skew %.1f), mix get/put/del %d/%d/%d\n",
		*runs, work, *conns, *keys, *skew, *getPct, *putPct, *delPct)
	rep, err := server.SweepModes(load, *runs, os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("variance reduced (guided <= unguided): %v\n", rep.VarianceReduced)
	printTail()
	writeReport(*out, rep)
}

// runSweep runs the named in-process sweep and prints its headline lines.
func runSweep(name string, runs int) (any, error) {
	switch name {
	case "shard":
		rep, err := server.SweepShards(runs, os.Stderr)
		if err != nil {
			return nil, err
		}
		for _, wl := range rep.Workloads {
			fmt.Printf("%s: guided 4-shard speedup %.2fx, unguided %.2fx\n", wl.Workload, wl.GuidedSpeedup4x, wl.UnguidedSpeedup4x)
		}
		return rep, nil
	case "wal":
		rep, err := server.SweepWAL(runs, os.Stderr)
		if err != nil {
			return nil, err
		}
		for _, pt := range rep.Points {
			fmt.Printf("%-14s rel %.2fx  appends %d fsyncs %d\n", pt.Name, pt.RelativeThroughput, pt.WALAppends, pt.WALFsyncs)
		}
		fmt.Printf("relaxed >= 70%% of baseline: %v\n", rep.RelaxedTargetMet)
		return rep, nil
	case "xshard":
		rep, err := server.SweepXShard(runs, os.Stderr)
		if err != nil {
			return nil, err
		}
		fmt.Printf("single-shard path within 3%% (pct-0 ratio %.4f): %v; balance conserved: %v\n",
			rep.BaselineRatio, rep.SingleShardWithin3Pct, rep.BalanceConserved)
		return rep, nil
	case "speed":
		rep := speedbench.Run(speedbench.Config{Progress: os.Stderr})
		fmt.Printf("striped within bound of per-location on read-only and mixed at every core count: %v\n", rep.StripedWithinBound)
		return rep, nil
	}
	return nil, fmt.Errorf("unknown -sweep %q (want shard, wal, xshard or speed)", name)
}

// writeReport writes rep as indented JSON to out (nothing when out is
// empty).
func writeReport(out string, rep any) {
	if out == "" {
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gstm-loadgen: wrote %s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gstm-loadgen:", err)
	os.Exit(1)
}
