// Package speedbench measures the per-access cost of the TL2 engine's
// hot path: the unboxed slot protocol over per-location lock words
// against the same protocol over the striped lock table (the two engine
// modes the serving stack actually deploys, now that the any-boxed
// protocol is gone). The sweep crosses engine variants with workload
// mixes and GOMAXPROCS values and runs fixed work per point so
// throughput is comparable.
//
// The per-location-vs-striped ratio — the number the acceptance gate
// reads — is measured by fine-grained interleaving: both engines stay
// live for a whole round and execute their fixed work as many small
// alternating slices (ABBA order), so any external slowdown longer than
// one slice (co-tenant CPU steal, frequency shifts, page-cache storms)
// hits both engines nearly equally and divides out of the per-round
// elapsed-time ratio. Sub-slice noise averages over the slice count. On
// a shared two-core box, back-to-back whole runs measure the neighbors
// as much as the engines — wall-clock throughput swings severalfold with
// bursts both longer and shorter than a run — and the kernel's
// per-process CPU clock is too coarse (scheduler-tick resolution) to
// resolve the deltas under test, so slice interleaving is what actually
// isolates protocol cost. It backs cmd/gstm-loadgen's -sweep speed, which
// writes the report as BENCH_speed.json.
package speedbench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/stats"
	"gstm/internal/tl2"
	"gstm/internal/txid"
)

// Engine variants under measurement.
const (
	EngineUnboxed = "unboxed"         // slot protocol, per-location lock words
	EngineStriped = "unboxed+stripes" // slot protocol over the striped lock table
)

// Workload mixes. Every transaction performs exactly accessesPerTxn
// transactional operations regardless of mix, so ops/sec stays
// comparable across workloads. Reads sweep the whole array; writes land
// in a worker-private partition (see newBench). Mixed uses the
// Synchrobench-style update ratio: 90% read-only transactions, 10%
// update transactions of 31 reads + 1 write.
const (
	WorkloadReadOnly   = "read-only"   // 32 reads on the read-only fast path
	WorkloadMixed      = "mixed"       // 90% read-only txns, 10% update txns
	WorkloadWriteHeavy = "write-heavy" // 16 read-modify-write pairs
)

// accessesPerTxn is sized so transactions are access-dominated rather
// than commit-dominated: the sweep measures per-access protocol cost, and
// at 8 accesses the (engine-identical) commit sequence is most of the
// transaction, diluting the very delta under test below machine noise.
const accessesPerTxn = 32

// slicesPerRun is how many alternating slices one paired round is cut
// into. More slices shrink the noise window each engine can see alone;
// fewer slices amortize the per-slice goroutine spawn/join barrier
// (which both engines pay identically, so it cancels from the ratio
// either way).
const slicesPerRun = 32

// stripedFloor is the acceptance bound: the striped table trades
// per-location lock words for cache-compact shared stripes and may pay
// for the aliasing, but on the protocol-dominated workloads it must stay
// within 25% of the per-location engine (ratio >= 0.75) or the trade is
// mis-tuned.
const stripedFloor = 0.75

// Config parameterizes the sweep. The zero value is usable; normalize
// fills defaults tuned so each timed section runs long enough to average
// scheduler jitter while the full matrix stays under a few minutes on a
// two-core CI box.
type Config struct {
	Cores       []int `json:"cores"`        // GOMAXPROCS values swept (default 1,2,4,8)
	Cells       int   `json:"cells"`        // shared array length (default 4096)
	TxnsPerRun  int   `json:"txns_per_run"` // fixed total transactions per run, split across workers (default 120k)
	Runs        int   `json:"runs"`         // measured rounds per point; median reported (default 17)
	LockStripes int   `json:"lock_stripes"` // stripe count for the striped engine (default 256)

	Progress io.Writer `json:"-"` // optional per-point progress lines
}

func (cfg Config) normalize() Config {
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4, 8}
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 4096
	}
	if cfg.TxnsPerRun <= 0 {
		// Sized so each round's timed work runs on the order of 100ms even
		// on the fastest engine, giving every slice enough transactions to
		// dominate the spawn/join barrier around it.
		cfg.TxnsPerRun = 120_000
	}
	if cfg.Runs <= 0 {
		// Enough rounds for a stable median of the per-round interleaved
		// time ratios.
		cfg.Runs = 17
	}
	if cfg.LockStripes <= 0 {
		cfg.LockStripes = 256
	}
	return cfg
}

// Point is one (engine, workload, cores) cell of the matrix.
type Point struct {
	Engine   string `json:"engine"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"` // GOMAXPROCS and worker count

	// OpsPerSec is the median over rounds of transactional accesses per
	// wall-clock second (reads + writes, accessesPerTxn per transaction),
	// counting only time inside the measured slices. Absolute numbers
	// still carry whatever the neighbors were doing that round — compare
	// engines through Report.Speedups, which is what the interleaving
	// protects.
	OpsPerSec float64   `json:"ops_per_sec"`
	Runs      []float64 `json:"runs_ops_per_sec"`

	// Engine counters summed over the measured rounds.
	Commits          uint64 `json:"commits"`
	Aborts           uint64 `json:"aborts"`
	StripeCollisions uint64 `json:"stripe_collisions"`
}

// Report is the full sweep, written to BENCH_speed.json.
type Report struct {
	Description string    `json:"description"`
	Env         stats.Env `json:"environment"` // taken before the sweep moves GOMAXPROCS
	Config      Config    `json:"config"`
	Points      []Point   `json:"points"`

	// Speedups holds, per (workload, cores) cell, the striped-over-
	// per-location ratio: the median over rounds of (per-location elapsed
	// / striped elapsed) for identical fixed work executed as interleaved
	// slices within the same noise window. >1 means the striped table was
	// faster that cell.
	Speedups []Speedup `json:"speedups"`

	// StripedWithinBound is the acceptance flag: on the read-only and
	// mixed workloads at every swept core count, the striped engine stays
	// within stripedFloor of the per-location engine.
	StripedWithinBound bool `json:"striped_within_bound"`
}

// Speedup is one cell's striped-over-per-location ratio.
type Speedup struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`

	// Ratio is the median of RunRatios; >1 means striped is faster.
	Ratio float64 `json:"striped_over_unboxed"`

	// RunRatios are the per-round interleaved time ratios
	// (per-location/striped); their spread is the sweep's residual noise
	// floor.
	RunRatios []float64 `json:"run_ratios"`
}

// Run executes the sweep.
func Run(cfg Config) Report {
	cfg = cfg.normalize()
	rep := Report{
		Description: "Engine hot-path sweep: unboxed slot protocol over per-location lock words vs the same protocol over the striped lock table, across GOMAXPROCS and workload mixes. Fixed transactional work per point; every transaction performs 32 accesses so per-access protocol cost, not the engine-identical commit sequence, dominates; mixed is a Synchrobench-style 10% update ratio (90% read-only transactions, 10% of 31 reads + 1 write). Speedups are medians over rounds of per-round elapsed-time ratios with both engines executing as fine-grained interleaved slices (ABBA order) inside the same noise window, so machine noise longer than a slice divides out. Counters are summed over rounds.",
		Env:         stats.Environment(),
		Config:      cfg,
	}
	engines := []string{EngineUnboxed, EngineStriped}
	workloads := []string{WorkloadReadOnly, WorkloadMixed, WorkloadWriteHeavy}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	points := make(map[[3]string]*Point)
	addRound := func(eng, wl string, cores int, res result) {
		key := [3]string{eng, wl, fmt.Sprint(cores)}
		pt := points[key]
		if pt == nil {
			pt = &Point{Engine: eng, Workload: wl, Cores: cores}
			points[key] = pt
		}
		pt.Runs = append(pt.Runs, res.opsPerSec)
		pt.Commits += res.commits
		pt.Aborts += res.aborts
		pt.StripeCollisions += res.collisions
	}
	ratios := make(map[[2]string][]float64)

	for _, cores := range cfg.Cores {
		runtime.GOMAXPROCS(cores)
		for round := 0; round < cfg.Runs; round++ {
			for _, wl := range workloads {
				plainRes, stripedRes, ratio := measurePaired(wl, cores, cfg, uint64(round+1))
				addRound(EngineUnboxed, wl, cores, plainRes)
				addRound(EngineStriped, wl, cores, stripedRes)
				rk := [2]string{wl, fmt.Sprint(cores)}
				ratios[rk] = append(ratios[rk], ratio)
			}
		}
	}

	for _, cores := range cfg.Cores {
		for _, eng := range engines {
			for _, wl := range workloads {
				pt := points[[3]string{eng, wl, fmt.Sprint(cores)}]
				pt.OpsPerSec = stats.Median(pt.Runs)
				rep.Points = append(rep.Points, *pt)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-16s %-11s cores=%d  %10.0f ops/s  commits %d aborts %d collisions %d\n",
						pt.Engine, pt.Workload, pt.Cores, pt.OpsPerSec, pt.Commits, pt.Aborts, pt.StripeCollisions)
				}
			}
		}
	}

	rep.StripedWithinBound = true
	for _, cores := range cfg.Cores {
		for _, wl := range workloads {
			rr := ratios[[2]string{wl, fmt.Sprint(cores)}]
			sp := Speedup{Workload: wl, Cores: cores, Ratio: stats.Median(rr), RunRatios: rr}
			rep.Speedups = append(rep.Speedups, sp)
			if (wl == WorkloadReadOnly || wl == WorkloadMixed) && sp.Ratio < stripedFloor {
				rep.StripedWithinBound = false
			}
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "speedup %-11s cores=%d  striped/per-location %.3fx\n", wl, cores, sp.Ratio)
			}
		}
	}
	return rep
}

type result struct {
	opsPerSec  float64
	commits    uint64
	aborts     uint64
	collisions uint64
}

// sink defeats dead-code elimination of the benchmark read loops.
var sink atomic.Int64

// bench is one engine's live benchmark state for a round: runtime, array
// and per-worker RNG streams persist across the round's slices so a
// slice resumes exactly where the previous one stopped.
type bench struct {
	engine   string
	workload string
	cores    int
	cfg      Config
	rt       *tl2.Runtime
	arr      *tl2.Array[int64]
	rngs     []uint64
	part     int // worker-private write partition length
}

func newBench(engine, workload string, cores int, cfg Config, round uint64) *bench {
	rcfg := tl2.Config{PrivateClock: true, Label: "speedbench"}
	if engine == EngineStriped {
		rcfg.LockStripes = cfg.LockStripes
	}
	b := &bench{
		engine:   engine,
		workload: workload,
		cores:    cores,
		cfg:      cfg,
		rt:       tl2.New(rcfg),
		arr:      tl2.NewArray[int64](cfg.Cells),
		rngs:     make([]uint64, cores),
	}
	// Writes land in a worker-private partition of the array: the sweep
	// measures per-access protocol cost, which both engines pay identically
	// per conflict too — so letting random write-write conflicts (and the
	// chaotic abort/retry schedules they cause on an oversubscribed box)
	// into the measurement only adds engine-independent noise. Reads still
	// sweep the whole array.
	b.part = cfg.Cells / cores
	if b.part <= 0 {
		b.part = 1
	}
	for w := range b.rngs {
		// splitmix-style per-worker seed so rounds and workers draw
		// distinct index streams deterministically.
		b.rngs[w] = (uint64(w+1)*0x9e3779b97f4a7c15 + round*0xbf58476d1ce4e5b9) | 1
	}
	return b
}

// runSlice executes txnsPerWorker transactions on every worker and
// returns the wall time of the whole slice (spawn to join).
func (b *bench) runSlice(txnsPerWorker int) float64 {
	wcfg := b.cfg
	wcfg.TxnsPerRun = txnsPerWorker
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < b.cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := b.rngs[w] // worker-local copy: no cross-worker cache-line sharing
			partLo := (w * b.part) % b.cfg.Cells
			worker(b.rt, b.arr, b.workload, w, wcfg, &rng, partLo, b.part)
			b.rngs[w] = rng
		}(w)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// warmup runs a tenth of a round's work (Tx pool, caches, branch state),
// then forces a collection so construction garbage is never collected on
// a timed slice's clock, and resets the engine counters.
func (b *bench) warmup(perWorker int) {
	b.runSlice(perWorker/10 + 1)
	b.rt.ResetStats()
	runtime.GC()
}

func (b *bench) collect(opsRun float64, elapsed float64) result {
	commits, aborts := b.rt.Stats()
	snap := b.rt.Telemetry().Snapshot()
	res := result{
		commits:    commits,
		aborts:     aborts,
		collisions: snap.StripeCollisions,
	}
	if elapsed > 0 {
		res.opsPerSec = opsRun / elapsed
	}
	return res
}

// measurePaired runs one round of the per-location and striped engines
// side by side as alternating slices and returns both engines' results
// plus the round's per-location/striped elapsed-time ratio (>1 = striped
// faster).
func measurePaired(workload string, cores int, cfg Config, round uint64) (plainRes, stripedRes result, ratio float64) {
	pb := newBench(EngineUnboxed, workload, cores, cfg, round)
	sb := newBench(EngineStriped, workload, cores, cfg, round)

	perWorker := cfg.TxnsPerRun / cores
	if perWorker <= 0 {
		perWorker = 1
	}
	slices := slicesPerRun
	chunk := perWorker / slices
	if chunk <= 0 {
		chunk, slices = 1, perWorker
	}

	pb.warmup(perWorker)
	sb.warmup(perWorker)

	var tPlain, tStriped float64
	for s := 0; s < slices; s++ {
		// ABBA ordering: alternating which engine goes first in each pair
		// cancels any linear drift across the round.
		if s%2 == 0 {
			tPlain += pb.runSlice(chunk)
			tStriped += sb.runSlice(chunk)
		} else {
			tStriped += sb.runSlice(chunk)
			tPlain += pb.runSlice(chunk)
		}
	}

	ops := float64(cores) * float64(chunk*slices) * accessesPerTxn
	plainRes = pb.collect(ops, tPlain)
	stripedRes = sb.collect(ops, tStriped)
	if tStriped > 0 {
		ratio = tPlain / tStriped
	}
	return plainRes, stripedRes, ratio
}

// nextIdx advances the worker's xorshift stream and maps it to a cell
// index. Identical across engines so index-generation cost cancels out.
func nextIdx(rng *uint64, cells int) int {
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	return int(x % uint64(cells))
}

func worker(rt *tl2.Runtime, arr *tl2.Array[int64], workload string, w int, cfg Config, rng *uint64, partLo, part int) {
	thread, txn := txid.ThreadID(w), txid.TxnID(1)
	var total int64 // worker-local; one contended sink store per slice, not per txn
	switch workload {
	case WorkloadReadOnly:
		body := func(tx *tl2.Tx) error {
			var s int64
			for k := 0; k < accessesPerTxn; k++ {
				s += tl2.ReadAt(tx, arr, nextIdx(rng, cfg.Cells))
			}
			total += s
			return nil
		}
		for t := 0; t < cfg.TxnsPerRun; t++ {
			_ = rt.AtomicRO(thread, txn, body)
		}
	case WorkloadMixed:
		roBody := func(tx *tl2.Tx) error {
			var s int64
			for k := 0; k < accessesPerTxn; k++ {
				s += tl2.ReadAt(tx, arr, nextIdx(rng, cfg.Cells))
			}
			total += s
			return nil
		}
		upBody := func(tx *tl2.Tx) error {
			var s int64
			for k := 0; k < accessesPerTxn-1; k++ {
				s += tl2.ReadAt(tx, arr, nextIdx(rng, cfg.Cells))
			}
			tl2.WriteAt(tx, arr, partLo+int(*rng%uint64(part)), s)
			total += s
			return nil
		}
		for t := 0; t < cfg.TxnsPerRun; t++ {
			if t%10 == 0 {
				_ = rt.Atomic(thread, txn, upBody)
			} else {
				_ = rt.AtomicRO(thread, txn, roBody)
			}
		}
	default: // WorkloadWriteHeavy
		body := func(tx *tl2.Tx) error {
			for k := 0; k < accessesPerTxn/2; k++ {
				i := partLo + nextIdx(rng, part)
				tl2.WriteAt(tx, arr, i, tl2.ReadAt(tx, arr, i)+1)
			}
			return nil
		}
		for t := 0; t < cfg.TxnsPerRun; t++ {
			_ = rt.Atomic(thread, txn, body)
		}
	}
	sink.Store(total)
}
