package libtm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/commitreg"
	"gstm/internal/obs"
	"gstm/internal/retry"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// Runtime is a LibTM STM instance.
type Runtime struct {
	cfg   Config
	reg   *commitreg.Registry
	sink  atomic.Pointer[sinkBox]
	gate  atomic.Pointer[gateBox]
	fault atomic.Pointer[faultBox]
	pool  sync.Pool

	// tel holds all runtime counters and latency histograms (sharded by
	// worker thread), registered in the process-wide telemetry registry.
	tel *telemetry.Metrics
}

type sinkBox struct{ s EventSink }
type gateBox struct{ g Gate }
type faultBox struct{ f FaultInjector }

// New returns a Runtime with cfg (zero fields defaulted: the paper's fully
// optimistic detection with abort-readers resolution).
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg.Normalize(), tel: telemetry.New("libtm")}
	rt.reg = commitreg.New(rt.cfg.RegistryCapacity)
	rt.pool.New = func() any { return &Tx{} }
	return rt
}

// Telemetry returns this runtime's metrics: sharded lifecycle counters,
// sampled latency histograms, and the diagnostic event ring.
func (rt *Runtime) Telemetry() *telemetry.Metrics { return rt.tel }

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// SetSink installs (or removes, with nil) the instrumentation sink.
func (rt *Runtime) SetSink(s EventSink) {
	if s == nil {
		rt.sink.Store(nil)
		return
	}
	rt.sink.Store(&sinkBox{s: s})
}

// SetGate installs (or removes, with nil) the transaction-start gate.
func (rt *Runtime) SetGate(g Gate) {
	if g == nil {
		rt.gate.Store(nil)
		return
	}
	rt.gate.Store(&gateBox{g: g})
}

// SetFaultInjector installs (or removes, with nil) the chaos-testing fault
// injector (see tl2.FaultInjector; the interface is structurally shared).
func (rt *Runtime) SetFaultInjector(f FaultInjector) {
	if f == nil {
		rt.fault.Store(nil)
		return
	}
	rt.fault.Store(&faultBox{f: f})
}

// injector returns the installed fault injector, or nil.
func (rt *Runtime) injector() FaultInjector {
	if fb := rt.fault.Load(); fb != nil {
		return fb.f
	}
	return nil
}

// Stats returns cumulative committed transactions and aborted attempts.
func (rt *Runtime) Stats() (commits, aborts uint64) {
	return rt.tel.Commits.Load(), rt.tel.Aborts.Load()
}

// ResetStats zeroes the cumulative telemetry — counters, latency
// histograms and the event ring.
func (rt *Runtime) ResetStats() {
	rt.tel.Reset()
}

// ResilienceStats returns how many transactions were abandoned on a spent
// retry budget and on context cancellation (see tl2.Runtime.ResilienceStats).
func (rt *Runtime) ResilienceStats() (budgetExceeded, canceled uint64) {
	return rt.tel.RetryBudgetExceeded.Load(), rt.tel.ContextCanceled.Load()
}

// Atomic executes fn transactionally as transaction site txn on worker
// thread, retrying on conflicts. A non-nil error from fn aborts the attempt
// and is returned without retry. Atomic must not be nested.
func (rt *Runtime) Atomic(thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(nil, thread, txn, fn, 0)
}

// AtomicCtx is Atomic honoring ctx: cancellation/deadline is checked
// between retry attempts and surfaces as ctx.Err(); a per-call attempt
// budget attached with retry.WithBudget bounds retries, returning
// retry.ErrBudgetExceeded when spent. Either way every write lock and
// reader registration has been released.
func (rt *Runtime) AtomicCtx(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(ctx, thread, txn, fn, 0)
}

// Run mirrors tl2.Runtime.Run for this engine: ctx may be nil, and
// maxAttempts > 0 bounds attempts without a context allocation (overriding
// any retry.WithBudget budget; <= 0 defers to it). LibTM has no read-only
// fast path, so there is no readOnly parameter.
func (rt *Runtime) Run(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, maxAttempts int) error {
	return rt.run(ctx, thread, txn, fn, maxAttempts)
}

func (rt *Runtime) run(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, maxAttempts int) error {
	self := txid.Pair{Txn: txn, Thread: thread}
	tx := rt.pool.Get().(*Tx)
	defer func() {
		if r := recover(); r != nil {
			// A panic escaped the user's transaction body: release write
			// locks and reader registrations, scrub the write set, pool a
			// clean Tx, and let the panic continue.
			tx.cleanup()
			tx.scrub()
			rt.pool.Put(tx)
			panic(r)
		}
		rt.pool.Put(tx)
	}()

	budget := maxAttempts
	if budget <= 0 {
		budget = retry.Budget(ctx)
	}
	shard := uint64(thread)
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				rt.tel.TxCanceled(shard)
				return fmt.Errorf("%w: %w", retry.ErrCanceled, err)
			}
		}
		if gb := rt.gate.Load(); gb != nil {
			gb.g.Arrive(self)
		}
		sampled := rt.tel.TxStart(shard)
		tx.reset(rt, self, attempt)

		err, c := runBody(tx, fn)
		if c != nil {
			tx.cleanup()
			rt.noteAbort(self, c)
			if rt.budgetSpent(shard, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			backoff(attempt)
			continue
		}
		if err != nil {
			tx.cleanup()
			return err
		}
		if fi := rt.injector(); fi != nil && fi.SpuriousAbort(self, attempt) {
			tx.cleanup()
			rt.noteAbort(self, &conflict{cause: obs.CauseSpurious})
			if rt.budgetSpent(shard, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			backoff(attempt)
			continue
		}
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		wv, c, ok := tx.commit()
		if !ok {
			tx.cleanup()
			rt.noteAbort(self, c)
			if rt.budgetSpent(shard, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			backoff(attempt)
			continue
		}
		if sampled {
			// LibTM's visible readers validate at access time; there is no
			// commit-time read-set validation phase to time separately.
			rt.tel.ObserveCommit(shard, time.Since(t0), 0, false)
		}
		rt.tel.TxCommit(shard)
		if sb := rt.sink.Load(); sb != nil {
			sb.s.TxCommit(self, wv, attempt)
		}
		return nil
	}
}

// budgetSpent reports whether the aborted attempt was the last budgeted
// one, counting the exhaustion when it was.
func (rt *Runtime) budgetSpent(shard uint64, budget, attempt int) bool {
	if budget > 0 && attempt+1 >= budget {
		rt.tel.TxBudgetExceeded(shard)
		return true
	}
	return false
}

// noteAbort counts and reports an abort. Dooming gives exact attribution;
// lock-wait conflicts fall back to the most recent commit.
func (rt *Runtime) noteAbort(self txid.Pair, c *conflict) {
	rt.tel.TxAbort(uint64(self.Thread), c.cause)
	sb := rt.sink.Load()
	if sb == nil {
		return
	}
	if c.byKnown && c.byWV != 0 {
		sb.s.TxAbort(self, c.byWV, c.by, true)
		return
	}
	guessWV := seq.Load()
	by, ok := rt.reg.Lookup(guessWV)
	if !ok {
		by = txid.Pair{}
	}
	sb.s.TxAbort(self, guessWV, by, false)
}

// backoff mirrors tl2's yield-based contention backoff.
func backoff(attempt int) {
	yields := 0
	switch {
	case attempt < 2:
	case attempt < 8:
		yields = 1
	case attempt < 32:
		yields = 4
	default:
		yields = 16
	}
	for i := 0; i < yields; i++ {
		runtime.Gosched()
	}
}

// runBody executes fn, converting a conflict panic into a result and a
// Retry into ErrBlockingUnsupported (ending the call, not the attempt),
// while letting other panics propagate.
func runBody(tx *Tx, fn func(*Tx) error) (err error, c *conflict) {
	defer func() {
		if r := recover(); r != nil {
			if cc, ok := r.(*conflict); ok {
				c = cc
				return
			}
			if _, ok := r.(retrySignal); ok {
				err = ErrBlockingUnsupported
				return
			}
			panic(r)
		}
	}()
	return fn(tx), nil
}
