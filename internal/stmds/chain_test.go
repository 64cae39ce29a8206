package stmds

import (
	"testing"

	"gstm/internal/tl2"
	"gstm/internal/xrand"
)

var sinkU64 uint64

// raceEnabled is set in -race builds (race_test.go). The race runtime makes
// sync.Pool drop a quarter of its Puts at random, so a committed
// transaction sometimes pays for a fresh pooled Tx and its read-set growth.
var raceEnabled bool

// TestChainGetZeroAllocs is the allocation gate on the hash-chain read
// path: a read-only Get that walks a 16-deep chain follows one embedded
// link cell per hop and must not allocate.
func TestChainGetZeroAllocs(t *testing.T) {
	rt := newRT()
	h := NewHashTable[uint64](16)
	atomically(t, rt, func(tx *tl2.Tx) error {
		for k := int64(0); k < 16*16; k++ {
			h.InsertNoCount(tx, k, uint64(k))
		}
		return nil
	})
	// The last key of the longest chain sits at the chain's tail.
	var deepest int64
	depth := 0
	atomically(t, rt, func(tx *tl2.Tx) error {
		for _, b := range h.buckets {
			n := 0
			var last int64
			b.Range(tx, func(k int64, _ uint64) bool { n++; last = k; return true })
			if n > depth {
				depth, deepest = n, last
			}
		}
		return nil
	})
	if depth < 16 {
		t.Fatalf("longest chain is %d deep, want >= 16", depth)
	}
	get := func(tx *tl2.Tx) error {
		v, ok := h.Get(tx, deepest)
		if !ok || v != uint64(deepest) {
			t.Errorf("Get(%d) = %d, %v", deepest, v, ok)
		}
		sinkU64 += v
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := rt.AtomicRO(0, 0, get); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Errorf("read-only Get down a %d-deep chain = %.2f allocs/op, want 0", depth, avg)
	}
}

// TestListInsertAllocs gates a committed List.Insert at three allocations:
// the node (its link and value cells are embedded), the value box and the
// size counter's redo box. Linking the node writes the pointer itself, so
// it allocates nothing.
func TestListInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include sync.Pool misses under -race")
	}
	rt := newRT()
	l := NewList[uint64]()
	k := int64(0)
	insert := func(tx *tl2.Tx) error {
		if !l.Insert(tx, k, uint64(k)) {
			t.Errorf("Insert(%d) found a duplicate", k)
		}
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		k-- // descending keys link at the head: constant work per run
		if err := rt.Atomic(0, 0, insert); err != nil {
			t.Error(err)
		}
	}); avg > 3 {
		t.Errorf("committed List.Insert = %.2f allocs/op, want <= 3", avg)
	}
}

// BenchmarkChainGet measures uniform read-only Gets over four 1024-bucket
// tables of 16384 keys each (16-deep chains), the shape of the serving
// benchmark's read-mostly store: four shard partitions too large for the
// last-level cache to hold every node.
func BenchmarkChainGet(b *testing.B) {
	const tables, keys, buckets = 4, 16384, 1024
	rt := tl2.New(tl2.Config{})
	hs := make([]*HashTable[uint64], tables)
	for i := range hs {
		hs[i] = NewHashTable[uint64](buckets)
		h := hs[i]
		for lo := int64(0); lo < keys; lo += 1024 {
			if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
				for k := lo; k < lo+1024; k++ {
					h.InsertNoCount(tx, k, uint64(k))
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	r := xrand.New(1)
	var key int64
	var h *HashTable[uint64]
	get := func(tx *tl2.Tx) error {
		v, _ := h.Get(tx, key)
		sinkU64 += v
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := r.Uint64()
		h, key = hs[x%tables], int64((x>>8)%keys)
		if err := rt.AtomicRO(0, 0, get); err != nil {
			b.Fatal(err)
		}
	}
}
