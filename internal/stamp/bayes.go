package stamp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gstm"
	"gstm/internal/stmds"
	"gstm/internal/xrand"
)

// Bayes ports STAMP's bayes: hill-climbing structure learning of a
// Bayesian network. Worker threads pull candidate edge insertions from a
// shared queue and, in one long transaction each, verify acyclicity by
// walking the shared adjacency structure (a large read set), score the
// candidate against the training data, and install improving edges (writes
// to adjacency and per-variable score cells). Long transactions over a
// shared graph give bayes the largest transaction footprints in the suite.
//
// The paper EXCLUDES bayes from every result table because it seg-faults
// in the authors' environment (a known STAMP issue they cite). This port
// runs correctly, but to keep the reproduction faithful it is likewise
// excluded from stamp.All() and from the experiment harness; it is
// available via NewBayes / AllWithBayes for completeness.
//
// Transaction sites:
//
//	0 — pop a candidate edge operation from the work queue
//	1 — validate, score and (if improving) apply the edge
type Bayes struct{}

// NewBayes returns the bayes workload.
func NewBayes() *Bayes { return &Bayes{} }

// AllWithBayes returns the full eight-benchmark suite including bayes.
func AllWithBayes() []Workload {
	return append([]Workload{NewBayes()}, All()...)
}

// Name implements Workload.
func (*Bayes) Name() string { return "bayes" }

type bayesCandidate struct {
	From, To int32
}

type bayesInstance struct {
	threads int
	nVars   int
	records [][]byte // binary training data, records × vars

	adj       *gstm.Array[bool]    // adjacency matrix, row-major From*nVars+To
	parents   *gstm.Array[int32]   // parent count per variable
	scores    *gstm.Array[float64] // local score per variable
	inserted  *gstm.Var[int]
	evaluated *gstm.Var[int]
	work      *stmds.Queue[bayesCandidate]
	nCands    int
	maxParent int32

	// overlap, when set (tests), holds every thread's first evaluation
	// transaction, on its first attempt, until all threads have read the
	// shared counters: the first to commit then invalidates the others,
	// so contention happens by construction rather than by schedule.
	overlap *sync.WaitGroup
}

// NewInstance implements Workload.
func (*Bayes) NewInstance(p Params) (Instance, error) {
	if p.Threads <= 0 {
		return nil, fmt.Errorf("bayes: non-positive thread count %d", p.Threads)
	}
	var nVars, nRecords, nCands int
	switch p.Size {
	case Small:
		nVars, nRecords, nCands = 12, 128, 160
	case Medium:
		nVars, nRecords, nCands = 16, 256, 320
	case Large:
		nVars, nRecords, nCands = 24, 512, 960
	default:
		return nil, fmt.Errorf("bayes: unknown size %v", p.Size)
	}
	rng := xrand.New(p.Seed + 808)
	inst := &bayesInstance{
		threads:   p.Threads,
		nVars:     nVars,
		records:   make([][]byte, nRecords),
		adj:       gstm.NewArray[bool](nVars * nVars),
		parents:   gstm.NewArray[int32](nVars),
		scores:    gstm.NewArray[float64](nVars),
		inserted:  gstm.NewVar(0),
		evaluated: gstm.NewVar(0),
		work:      stmds.NewQueue[bayesCandidate](),
		nCands:    nCands,
		maxParent: 4,
	}
	// Ground truth: a random DAG over the variable order; data sampled
	// from noisy OR of parents.
	truth := make([][]int32, nVars)
	for v := 1; v < nVars; v++ {
		for k := 0; k < 2; k++ {
			truth[v] = append(truth[v], int32(rng.Intn(v)))
		}
	}
	for r := range inst.records {
		rec := make([]byte, nVars)
		for v := 0; v < nVars; v++ {
			bit := byte(0)
			for _, par := range truth[v] {
				bit |= rec[par]
			}
			if rng.Intn(100) < 20 { // noise
				bit ^= 1
			}
			rec[v] = bit
		}
		inst.records[r] = rec
	}
	// Candidate operations: random directed edges, duplicates allowed (a
	// later duplicate scores as no improvement).
	setup := gstm.NewSystem(gstm.Config{Threads: 1})
	for i := 0; i < nCands; i++ {
		from := int32(rng.Intn(nVars))
		to := int32(rng.Intn(nVars))
		if from == to {
			to = (to + 1) % int32(nVars)
		}
		cand := bayesCandidate{From: from, To: to}
		if err := setup.Run(nil, 0, 0, func(tx *gstm.Tx) error {
			inst.work.Enqueue(tx, cand)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// localScore computes a BIC-flavoured score of variable v given one extra
// parent from: the mutual agreement between v and its would-be parent over
// the data, penalized by parent count. Pure computation over the private
// training data.
func (in *bayesInstance) localScore(v, from int32, nParents int32) float64 {
	agree := 0
	for _, rec := range in.records {
		if rec[v] == rec[from] {
			agree++
		}
	}
	p := float64(agree) / float64(len(in.records))
	if p <= 0 || p >= 1 {
		return -float64(nParents)
	}
	n := float64(len(in.records))
	return n*(p*math.Log(p)+(1-p)*math.Log(1-p))/10 + n*p - float64(nParents)*math.Log(n)
}

// reachable reports (transactionally) whether dst is reachable from src in
// the current adjacency — the acyclicity check; its DFS is the big read
// set that makes bayes transactions long.
func (in *bayesInstance) reachable(tx *gstm.Tx, src, dst int32) bool {
	seen := make([]bool, in.nVars)
	stack := []int32{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == dst {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := int32(0); next < int32(in.nVars); next++ {
			if gstm.ReadAt(tx, in.adj, int(cur)*in.nVars+int(next)) && !seen[next] {
				stack = append(stack, next)
			}
		}
	}
	return false
}

// Run implements Instance.
func (in *bayesInstance) Run(sys *gstm.System) ([]time.Duration, error) {
	return RunThreads(in.threads, func(t int) error {
		id := gstm.ThreadID(t)
		first := in.overlap != nil
		for {
			var cand bayesCandidate
			var got bool
			if err := sys.Run(nil, id, 0, func(tx *gstm.Tx) error {
				cand, got = in.work.Dequeue(tx)
				return nil
			}); err != nil {
				return err
			}
			if !got {
				return nil
			}
			if err := sys.Run(nil, id, 1, func(tx *gstm.Tx) error {
				gstm.Write(tx, in.evaluated, gstm.Read(tx, in.evaluated)+1)
				if first {
					first = false
					in.overlap.Done()
					in.overlap.Wait()
				}
				idx := int(cand.From)*in.nVars + int(cand.To)
				if gstm.ReadAt(tx, in.adj, idx) {
					return nil // already present
				}
				nPar := gstm.ReadAt(tx, in.parents, int(cand.To))
				if nPar >= in.maxParent {
					return nil
				}
				// Adding From→To creates a cycle iff From is reachable
				// from To.
				if in.reachable(tx, cand.To, cand.From) {
					return nil
				}
				oldScore := gstm.ReadAt(tx, in.scores, int(cand.To))
				newScore := in.localScore(cand.To, cand.From, nPar+1)
				if newScore <= oldScore {
					return nil
				}
				gstm.WriteAt(tx, in.adj, idx, true)
				gstm.WriteAt(tx, in.parents, int(cand.To), nPar+1)
				gstm.WriteAt(tx, in.scores, int(cand.To), newScore)
				gstm.Write(tx, in.inserted, gstm.Read(tx, in.inserted)+1)
				return nil
			}); err != nil {
				return err
			}
		}
	})
}

// Validate implements Instance.
func (in *bayesInstance) Validate(sys *gstm.System) error {
	if got := in.evaluated.Peek(); got != in.nCands {
		return fmt.Errorf("bayes: evaluated %d candidates, want %d", got, in.nCands)
	}
	// Parent counts must match adjacency columns.
	edges := 0
	for v := 0; v < in.nVars; v++ {
		col := int32(0)
		for u := 0; u < in.nVars; u++ {
			if in.adj.Peek(u*in.nVars + v) {
				col++
				edges++
			}
		}
		if got := in.parents.Peek(v); got != col {
			return fmt.Errorf("bayes: var %d parent count %d, adjacency says %d", v, got, col)
		}
		if col > in.maxParent {
			return fmt.Errorf("bayes: var %d has %d parents (max %d)", v, col, in.maxParent)
		}
	}
	if got := in.inserted.Peek(); got != edges {
		return fmt.Errorf("bayes: inserted counter %d, adjacency has %d edges", got, edges)
	}
	// The learned graph must be acyclic: Kahn's algorithm consumes all
	// vertices.
	indeg := make([]int, in.nVars)
	for u := 0; u < in.nVars; u++ {
		for v := 0; v < in.nVars; v++ {
			if in.adj.Peek(u*in.nVars + v) {
				indeg[v]++
			}
		}
	}
	var queue []int
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for v := 0; v < in.nVars; v++ {
			if in.adj.Peek(u*in.nVars + v) {
				indeg[v]--
				if indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	if removed != in.nVars {
		return fmt.Errorf("bayes: learned graph has a cycle (%d of %d vertices topologically sorted)", removed, in.nVars)
	}
	return nil
}
