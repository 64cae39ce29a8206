package main

import (
	"fmt"
	"math"
	"time"

	"gstm/internal/server"
	"gstm/internal/xrand"
)

// kind classifies an operation for the per-kind latency metrics.
type kind uint8

const (
	kindRead  kind = iota // Get
	kindWrite             // Put, Add, Del
	kindTxn               // OpTxn transfer
	numKinds
)

func kindOf(op server.Op) kind {
	switch op {
	case server.OpGet:
		return kindRead
	case server.OpTxn:
		return kindTxn
	default:
		return kindWrite
	}
}

// benchOp is one generated operation. A transfer (op == OpTxn) moves 1
// from key to key2 as one atomic two-key transaction.
type benchOp struct {
	op   server.Op
	key  uint64
	arg  uint64
	key2 uint64
}

// unanswered is the status a caller records for a request whose response
// never arrived (the connection failed first). It is outside the
// protocol's status range.
const unanswered server.Status = 0xff

// acct is one connection's outcome accounting, merged across connections
// for the output checks.
type acct struct {
	ackedAdds   uint64 // Adds answered StatusOK
	unackedAdds uint64 // Adds answered otherwise, or never answered
	badValues   uint64 // Gets whose value broke the workload's encoding
	firstBad    string
	sum         int64 // signed sum of values read (the balance check)
}

func (a *acct) merge(b acct) {
	a.ackedAdds += b.ackedAdds
	a.unackedAdds += b.unackedAdds
	a.badValues += b.badValues
	a.sum += b.sum
	if a.firstBad == "" {
		a.firstBad = b.firstBad
	}
}

// workload is one traffic mix against one server configuration. Why each
// workload exists is in README.md.
type workload struct {
	name string
	why  string
	keys int

	// config returns the server configuration; walDir is a fresh
	// directory, used when durable is set.
	config  func(walDir string) server.Config
	durable bool
	// preloadVal, when non-nil, makes setup Put preloadVal(key) for every
	// key before the workload starts.
	preloadVal func(seed, key uint64) uint64
	// guided makes setup wait until every shard serves guided.
	guided bool
	// next draws one operation from the mix.
	next func(r *xrand.Rand) benchOp
	// check folds one response into the accounting.
	check func(a *acct, o benchOp, st server.Status, v uint64)
	// endCheck checks the server's outputs once the measured run is over.
	endCheck func(b *bench) error
}

// keyEncoded is read-mostly's value scheme: the key in the high 32 bits,
// seed-derived noise in the low 32, so every stored value names its key.
func keyEncoded(key, noise uint64) uint64 { return key<<32 | noise&0xffffffff }

func keyOfValue(v uint64) uint64 { return v >> 32 }

// uniformKey draws a key uniformly from [0, n).
func uniformKey(r *xrand.Rand, n int) uint64 { return uint64(r.Intn(n)) }

// skewedKey draws key = (n-1) * u^skew: larger skew makes a hotter head.
// It is the same shape as gstm-loadgen's -skew, so results compare.
func skewedKey(r *xrand.Rand, n int, skew float64) uint64 {
	return uint64(float64(n-1) * math.Pow(r.Float64(), skew))
}

func statusOK(st server.Status) bool {
	return st == server.StatusOK || st == server.StatusNotFound
}

// countAdds is the accounting durable-transfer's balance check needs.
func countAdds(a *acct, o benchOp, st server.Status, _ uint64) {
	if o.op != server.OpAdd {
		return
	}
	if st == server.StatusOK {
		a.ackedAdds++
	} else {
		a.unackedAdds++
	}
}

// checkKeyEncoded is read-mostly's response check: every Get must find its
// key, holding a value that encodes that key.
func checkKeyEncoded(a *acct, o benchOp, st server.Status, v uint64) {
	if o.op != server.OpGet || st == unanswered {
		return
	}
	if st != server.StatusOK || keyOfValue(v) != o.key {
		a.badValues++
		if a.firstBad == "" {
			a.firstBad = fmt.Sprintf("get key %d: status %d value %#x", o.key, st, v)
		}
	}
}

const (
	hotKeys     = 128
	hotSkew     = 5
	durableKeys = 4096
	readKeys    = 65536
	// durable-transfer's log: relaxed mode, because with an fsync before
	// every ack its figures follow the host disk's fsync latency rather
	// than the program (see README.md). A snapshot cycle every
	// snapshotEach commits gives several per shard in a 30-second run.
	fsyncWindow  = 500 * time.Millisecond
	snapshotEach = 131072 // logged commits per shard between WAL snapshots
)

var workloads = []*workload{
	{
		name: "hot-guided",
		why:  "the paper's regime: a skewed read-modify-write head on one guided shard, so TL2 retries and the guidance gate do the work",
		keys: hotKeys,
		config: func(string) server.Config {
			return server.Config{
				Shards: 1, Workers: 4, Batch: 8, Interleave: 4,
				// BENCH_server.json's recipe: force the trained model in, so
				// the run never depends on the analyzer's verdict.
				ForceGuidance: true, Tfactor: 4, GateRetries: 4,
			}
		},
		guided: true,
		next: func(r *xrand.Rand) benchOp {
			key := skewedKey(r, hotKeys, hotSkew)
			switch p := r.Intn(100); {
			case p < 80:
				return benchOp{op: server.OpAdd, key: key, arg: 1}
			case p < 90:
				return benchOp{op: server.OpGet, key: key}
			case p < 95:
				return benchOp{op: server.OpPut, key: key, arg: r.Uint64() >> 1}
			default:
				return benchOp{op: server.OpDel, key: key}
			}
		},
		check: func(*acct, benchOp, server.Status, uint64) {},
		// Guidance was checked when setup finished; it must still hold.
		endCheck: func(b *bench) error { return checkGuided(b.shardModes()) },
	},
	{
		name:    "durable-transfer",
		why:     "WAL group commit, fsync and snapshots, the acker and the cross-shard OpTxn path, with reads beside log-bound writes",
		keys:    durableKeys,
		durable: true,
		config: func(walDir string) server.Config {
			return server.Config{
				Shards: 4, Workers: 4, Batch: 8, Unguided: true,
				WALDir: walDir, SnapshotEvery: snapshotEach, FsyncInterval: fsyncWindow,
			}
		},
		preloadVal: func(uint64, uint64) uint64 { return 0 },
		next: func(r *xrand.Rand) benchOp {
			if r.Intn(100) < 20 {
				from := uniformKey(r, durableKeys)
				to := uniformKey(r, durableKeys-1)
				if to >= from {
					to++
				}
				return benchOp{op: server.OpTxn, key: from, key2: to}
			}
			key := uniformKey(r, durableKeys)
			if r.Intn(2) == 0 {
				return benchOp{op: server.OpGet, key: key}
			}
			return benchOp{op: server.OpAdd, key: key, arg: 1}
		},
		check: countAdds,
		endCheck: func(b *bench) error {
			sum, err := b.sumKeys()
			if err != nil {
				return err
			}
			return checkBalance(sum, b.acct.ackedAdds, b.acct.unackedAdds)
		},
	},
	{
		name: "read-mostly",
		why:  "the request pipeline and the read-only fast path over long hash chains, with no aborts, WAL or cross-shard work",
		keys: readKeys,
		config: func(string) server.Config {
			return server.Config{Shards: 4, Workers: 4, Batch: 8, Unguided: true}
		},
		preloadVal: func(seed, key uint64) uint64 {
			return keyEncoded(key, xrand.NewThread(seed, int(key)).Uint64())
		},
		next: func(r *xrand.Rand) benchOp {
			key := uniformKey(r, readKeys)
			if r.Intn(100) < 95 {
				return benchOp{op: server.OpGet, key: key}
			}
			return benchOp{op: server.OpPut, key: key, arg: keyEncoded(key, r.Uint64())}
		},
		check:    checkKeyEncoded,
		endCheck: func(b *bench) error { return checkValues(b.acct) },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
