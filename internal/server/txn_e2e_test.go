package server

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/faultinject"
)

// txnKeys is the balance keyspace of the OpTxn end-to-end tests: small
// enough that concurrent transfers collide, spread over every shard.
const txnKeys = 64

// keySum reads every balance key and returns the signed sum (absent keys
// count as zero).
func keySum(t *testing.T, cl *Client) int64 {
	t.Helper()
	var sum int64
	for k := uint64(0); k < txnKeys; k++ {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if ok {
			sum += int64(v)
		}
	}
	return sum
}

// TestTxnTransferDurable drives OpTxn through a durable 4-shard server:
// concurrent connections issue zero-sum transfers (most of them
// cross-shard) beside Get readers; the signed key sum must be exactly
// zero afterwards and again after a clean shutdown and a restart from the
// same WAL directory.
func TestTxnTransferDurable(t *testing.T) {
	cfg := Config{
		Shards: 4, Workers: 4, Batch: 8, Unguided: true,
		WALDir: t.TempDir(), FsyncInterval: 2 * time.Millisecond,
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	addr := s.Addr().String()

	const conns, transfers = 4, 300
	var wg sync.WaitGroup
	var stopReads atomic.Bool
	errs := make(chan error, conns+2)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				from, to := uint64(rng.Intn(txnKeys)), uint64(rng.Intn(txnKeys))
				if err := cl.Transfer(from, to, int64(1+rng.Intn(100))); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c + 1))
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed))
			for !stopReads.Load() {
				if _, _, err := cl.Get(uint64(rng.Intn(txnKeys))); err != nil {
					errs <- err
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	stopReads.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client: %v", err)
	}

	var xcommits uint64
	for sh := 0; sh < cfg.Shards; sh++ {
		xcommits += s.Router().System(sh).TelemetrySnapshot().XShardCommits
	}
	if xcommits == 0 {
		t.Fatal("no cross-shard commits: transfers never spanned shards")
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if sum := keySum(t, cl); sum != 0 {
		t.Fatalf("key sum after transfers = %d, want 0", sum)
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := startServer(t, cfg)
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatalf("dial recovered: %v", err)
	}
	defer cl2.Close()
	if sum := keySum(t, cl2); sum != 0 {
		t.Fatalf("key sum after recovery = %d, want 0", sum)
	}
}

// TestTxnTransferWALFailure: with every fsync failing (strict mode), a
// transfer's reply turns into StatusUnavailable instead of acknowledging
// a commit whose records never became durable.
func TestTxnTransferWALFailure(t *testing.T) {
	inj := faultinject.NewDisk(faultinject.DiskConfig{Seed: 12, FsyncErrorProb: 1})
	s := startServer(t, Config{
		Shards: 4, Workers: 2, Batch: 4, Unguided: true,
		WALDir: t.TempDir(), DiskFaults: inj,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	sawUnavailable := false
	for i := uint64(0); i < 50 && !sawUnavailable; i++ {
		st, _, err := cl.Txn([]TxnOp{
			{Op: OpAdd, Key: i, Arg: ^uint64(0)},
			{Op: OpAdd, Key: i + 1, Arg: 1},
		})
		if err != nil {
			t.Fatalf("txn: %v", err)
		}
		switch st {
		case StatusOK:
		case StatusUnavailable:
			sawUnavailable = true
		default:
			t.Fatalf("txn %d: status %d", i, st)
		}
	}
	if !sawUnavailable {
		t.Fatal("no StatusUnavailable transfer despite every fsync failing")
	}
	if fsyncErrs, _, _ := inj.DiskCounts(); fsyncErrs == 0 {
		t.Fatal("injector never fired")
	}
}
