package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gstm/internal/server"
	"gstm/internal/xrand"
)

const (
	// setupReps is how many times a run sets up its server; setup_s is the
	// median, and the last server serves the measured load.
	setupReps = 7
	// windows splits an untraced run: each end-to-end figure is its best
	// window's (see endToEnd).
	windows = 10
	// settleTime is untimed load between setup and measurement, so lazy
	// state (buffers, stacks, chains) is warm when timing starts.
	settleTime = 300 * time.Millisecond
	// guidedTimeout bounds the wait for hot-guided's lifecycle to install
	// its model.
	guidedTimeout = 60 * time.Second
)

// RNG streams: one seed yields distinct inputs for each phase of a run.
const (
	streamPreload = iota + 1
	streamWarmup
	streamSettle
	streamMeasure
	streamVerify
)

// setupTimes are one setup's stage durations, in seconds.
type setupTimes struct {
	start, preload, warmup, total float64
}

// stageSpan is the benchmark-side span of one setup stage.
type stageSpan struct {
	name           string
	rep            int
	startNs, endNs int64 // since origin
}

// bench is one invocation's state: a workload, its seed and the server
// under measurement.
type bench struct {
	w      *workload
	seed   uint64
	outDir string

	srv    *server.Server
	walDir string
	stages []stageSpan
	acct   acct   // every run's accounting on the measured server
	idErrs uint64 // responses that matched no outstanding request
}

// stage times fn as setup stage name of repetition rep.
func (b *bench) stage(name string, rep int, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	b.stages = append(b.stages, stageSpan{name, rep, t0.Sub(origin).Nanoseconds(), t1.Sub(origin).Nanoseconds()})
	if err != nil {
		return 0, fmt.Errorf("setup %s: %w", name, err)
	}
	return t1.Sub(t0).Seconds(), nil
}

// setUp builds, starts, preloads and warms one server to its settled mode.
func (b *bench) setUp(rep int) (setupTimes, error) {
	var st setupTimes
	if b.w.durable {
		b.walDir = filepath.Join(b.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(b.walDir); err != nil {
			return st, err
		}
	}
	var err error
	st.start, err = b.stage("start", rep, func() error {
		b.srv = server.New(b.w.config(b.walDir))
		return b.srv.Start()
	})
	if err != nil {
		return st, err
	}
	if b.w.preloadVal != nil {
		st.preload, err = b.stage("preload", rep, func() error {
			_, err := b.sweepKeys(streamPreload, func(k uint64) benchOp {
				return benchOp{op: server.OpPut, key: k, arg: b.w.preloadVal(b.seed, k)}
			}, func(*acct, benchOp, server.Status, uint64) {})
			return err
		})
		if err != nil {
			return st, err
		}
	}
	if b.w.guided {
		st.warmup, err = b.stage("warmup", rep, func() error {
			var guided bool
			res, err := runLoad(b.spec(streamWarmup, nil), func(time.Time) {
				deadline := time.Now().Add(guidedTimeout)
				for !guided && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
					guided = checkGuided(b.shardModes()) == nil
				}
			})
			b.note(res)
			if err != nil {
				return err
			}
			return checkGuided(b.shardModes())
		})
		if err != nil {
			return st, err
		}
	}
	st.total = st.start + st.preload + st.warmup
	return st, nil
}

func (b *bench) shardModes() []server.ServingMode {
	modes := make([]server.ServingMode, b.srv.Shards())
	for i := range modes {
		modes[i] = b.srv.ShardMode(i)
	}
	return modes
}

// spec is the workload's closed loop against the current server.
func (b *bench) spec(stream int, segs []segment) loadSpec {
	return loadSpec{
		addr: b.srv.Addr().String(), seed: b.seed, stream: stream, segs: segs,
		next:  func(r *xrand.Rand) (benchOp, bool) { return b.w.next(r), true },
		check: b.w.check,
	}
}

// note folds a run on the measured server into the output checks.
func (b *bench) note(res loadResult) {
	b.acct.merge(res.acct)
	b.idErrs += res.idMismatches
}

// tearDown stops the current server and removes its log directory.
func (b *bench) tearDown() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	b.srv = nil
	if b.walDir != "" {
		err = errors.Join(err, os.RemoveAll(b.walDir))
	}
	return err
}

// setUpAll sets up setupReps times, keeping the last server, and returns
// the per-stage medians.
func (b *bench) setUpAll() (setupTimes, error) {
	var starts, preloads, warmups, totals []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := b.tearDown(); err != nil {
			return setupTimes{}, err
		}
		b.acct, b.idErrs = acct{}, 0
		st, err := b.setUp(rep)
		if err != nil {
			return setupTimes{}, err
		}
		starts = append(starts, st.start)
		preloads = append(preloads, st.preload)
		warmups = append(warmups, st.warmup)
		totals = append(totals, st.total)
	}
	res, err := runLoad(b.spec(streamSettle, nil), func(time.Time) { time.Sleep(settleTime) })
	b.note(res)
	if err != nil {
		return setupTimes{}, fmt.Errorf("settle: %w", err)
	}
	return setupTimes{median(starts), median(preloads), median(warmups), median(totals)}, nil
}

// measure runs the workload's closed loop through segs, calling onBoundary
// at the start and at the end of every segment.
func (b *bench) measure(segs []segment, onBoundary func(i int) error) (loadResult, error) {
	var boundErr error
	res, err := runLoad(b.spec(streamMeasure, segs), func(t0 time.Time) {
		for i := 0; i <= len(segs); i++ {
			if i > 0 {
				time.Sleep(time.Until(t0.Add(segs[i-1].end)))
			}
			if onBoundary != nil && boundErr == nil {
				boundErr = onBoundary(i)
			}
		}
	})
	b.note(res)
	return res, errors.Join(err, boundErr)
}

// verify runs the workload's end-of-run output check against the server.
func (b *bench) verify() error {
	return errors.Join(checkIDs(b.idErrs), b.w.endCheck(b))
}

// sumKeys reads every key of the workload and sums the values as signed
// balances (absent keys count 0).
func (b *bench) sumKeys() (int64, error) {
	a, err := b.sweepKeys(streamVerify, func(k uint64) benchOp {
		return benchOp{op: server.OpGet, key: k}
	}, func(a *acct, _ benchOp, st server.Status, v uint64) {
		if st == server.StatusOK {
			a.sum += int64(v)
		}
	})
	return a.sum, err
}

// sweepKeys sends op(k) once for every key of the workload through the
// closed loop and returns the merged accounting. Any failed operation
// fails the sweep.
func (b *bench) sweepKeys(stream int, op func(k uint64) benchOp, check func(*acct, benchOp, server.Status, uint64)) (acct, error) {
	var next atomic.Uint64
	res, err := runLoad(loadSpec{
		addr: b.srv.Addr().String(), seed: b.seed, stream: stream, check: check,
		next: func(*xrand.Rand) (benchOp, bool) {
			k := next.Add(1) - 1
			return op(k), k < uint64(b.w.keys)
		},
	}, nil)
	b.idErrs += res.idMismatches
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", res.failed, res.sent)
	}
	return res.acct, err
}

// checkIDs fails a run in which any response named a request that was not
// outstanding on its connection.
func checkIDs(mismatches uint64) error {
	if mismatches > 0 {
		return fmt.Errorf("check ids: %d responses matched no outstanding request", mismatches)
	}
	return nil
}

// checkGuided requires every shard to serve guided.
func checkGuided(modes []server.ServingMode) error {
	for i, m := range modes {
		if m != server.ModeGuided {
			return fmt.Errorf("check guided: shard %d is %s", i, m)
		}
	}
	return nil
}

// checkBalance is durable-transfer's end-of-run check. Transfers are
// zero-sum and the keys were preloaded with 0, so the keys' total is the
// number of Adds that took effect: at least every acknowledged Add (no
// acked write lost, no transfer torn) and at most those plus the Adds
// whose outcome the client never learned.
func checkBalance(sum int64, acked, unacked uint64) error {
	if sum < int64(acked) || sum > int64(acked+unacked) {
		return fmt.Errorf("check balance: keys sum to %d, want within [%d, %d] (acked adds, plus %d unacknowledged)",
			sum, acked, acked+unacked, unacked)
	}
	return nil
}

// checkValues is read-mostly's check: no Get returned a value that does
// not encode its own key.
func checkValues(a acct) error {
	if a.badValues > 0 {
		return fmt.Errorf("check values: %d gets returned a value not encoding their key (first: %s)", a.badValues, a.firstBad)
	}
	return nil
}
