package tl2

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/txid"
)

type ptrTarget struct{ n int }

// TestPtrReadAfterWrite: inside one transaction ReadPtr observes the
// buffered WritePtr, including a nil write and a rewrite, and only the
// last write is published.
func TestPtrReadAfterWrite(t *testing.T) {
	rt := New(Config{})
	a, b := &ptrTarget{1}, &ptrTarget{2}
	c := new(Ptr[ptrTarget])
	c.Reset(a)
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		if got := ReadPtr(tx, c); got != a {
			t.Errorf("initial read = %p, want %p", got, a)
		}
		WritePtr(tx, c, nil)
		if got := ReadPtr(tx, c); got != nil {
			t.Errorf("read after nil write = %p, want nil", got)
		}
		WritePtr(tx, c, b)
		if got := ReadPtr(tx, c); got != b {
			t.Errorf("read after rewrite = %p, want %p", got, b)
		}
		WritePtr(tx, c, a)
		if got := ReadPtr(tx, c); got != a {
			t.Errorf("read after second rewrite = %p, want %p", got, a)
		}
		WritePtr(tx, c, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Peek(); got != nil {
		t.Fatalf("Peek after commit = %p, want nil", got)
	}
	if w := c.b.lk.word.Load(); wordLocked(w) || wordVersion(w) == 0 {
		t.Fatalf("lock word after commit = %#x, want unlocked at a new version", w)
	}
	var zero Ptr[ptrTarget]
	if zero.Peek() != nil {
		t.Fatal("zero Ptr does not hold nil")
	}
}

// TestPtrAbortLeavesPublished: an attempt that writes and then fails (user
// error or injected conflict) must leave the published pointer, version and
// lock word untouched.
func TestPtrAbortLeavesPublished(t *testing.T) {
	for _, eager := range []bool{false, true} {
		rt := New(Config{EagerWriteLock: eager})
		a := &ptrTarget{1}
		c := new(Ptr[ptrTarget])
		c.Reset(a)
		pre := c.b.lk.word.Load()
		boom := errors.New("boom")
		err := rt.Atomic(0, 0, func(tx *Tx) error {
			WritePtr(tx, c, &ptrTarget{2})
			WritePtr(tx, c, nil)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("eager=%v: err = %v, want boom", eager, err)
		}
		if got, w := c.Peek(), c.b.lk.word.Load(); got != a || w != pre {
			t.Fatalf("eager=%v: after abort Peek = %p word %#x, want %p word %#x", eager, got, w, a, pre)
		}
		attempts := 0
		if err := rt.Atomic(0, 1, func(tx *Tx) error {
			attempts++
			WritePtr(tx, c, nil)
			if attempts == 1 {
				tx.conflict(0, obs.CauseReadValidation) // abort the first attempt after its write
			}
			WritePtr(tx, c, a)
			return nil
		}); err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		if attempts != 2 {
			t.Fatalf("eager=%v: %d attempts, want 2", eager, attempts)
		}
		if got := c.Peek(); got != a {
			t.Fatalf("eager=%v: Peek = %p, want %p", eager, got, a)
		}
		if post := c.b.lk.word.Load(); wordLocked(post) || wordVersion(post) <= wordVersion(pre) {
			t.Fatalf("eager=%v: lock word %#x after commit (pre %#x)", eager, post, pre)
		}
	}
}

// TestPtrEagerWriteLock: under Config.EagerWriteLock the first WritePtr
// takes the cell's lock at encounter time and a rewrite reuses it.
func TestPtrEagerWriteLock(t *testing.T) {
	rt := New(Config{EagerWriteLock: true})
	c := new(Ptr[ptrTarget])
	b := &ptrTarget{2}
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		WritePtr(tx, c, &ptrTarget{1})
		if !wordLocked(c.b.lk.word.Load()) {
			t.Error("encounter-time lock not held after first WritePtr")
		}
		WritePtr(tx, c, b)
		if got := ReadPtr(tx, c); got != b {
			t.Errorf("buffered read = %p, want %p", got, b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Peek(); got != b {
		t.Fatalf("Peek = %p, want %p", got, b)
	}
	if wordLocked(c.b.lk.word.Load()) {
		t.Fatal("lock leaked past commit")
	}
}

// TestPtrStriped: on a LockStripes runtime Ptr cells share the stripe
// table; concurrent swaps between aliased cells conserve the pointed-to
// set and leave every stripe unlocked.
func TestPtrStriped(t *testing.T) {
	rt := New(Config{LockStripes: 2, Interleave: 4, PrivateClock: true})
	const n = 8
	cells := make([]Ptr[ptrTarget], n)
	for i := range cells {
		cells[i].Reset(&ptrTarget{i})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				x, y := r.Intn(n), r.Intn(n)
				if err := rt.Atomic(txid.ThreadID(w), 0, func(tx *Tx) error {
					px, py := ReadPtr(tx, &cells[x]), ReadPtr(tx, &cells[y])
					WritePtr(tx, &cells[x], py)
					WritePtr(tx, &cells[y], px)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for i := range cells {
		p := cells[i].Peek()
		if p == nil || seen[p.n] {
			t.Fatalf("cell %d holds %v: swaps lost or duplicated a pointer", i, p)
		}
		seen[p.n] = true
	}
	if locked, _ := rt.LockedStripes(); locked != 0 {
		t.Fatalf("%d stripes locked at quiescence", locked)
	}
}

// TestPtrRetryWokenByWritePtr: a blocking transaction that parks after a
// ReadPtr is woken by another thread's WritePtr commit to that cell.
func TestPtrRetryWokenByWritePtr(t *testing.T) {
	rt := New(Config{})
	c := new(Ptr[ptrTarget])
	parked0 := rt.Telemetry().Snapshot().Parked
	got := make(chan *ptrTarget, 1)
	go func() {
		var out *ptrTarget
		err := rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
			if out = ReadPtr(tx, c); out == nil {
				tx.Retry()
			}
			return nil
		}, RunOpts{Block: true})
		if err != nil {
			t.Error(err)
		}
		got <- out
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Telemetry().Snapshot().Parked == parked0 {
		if time.Now().After(deadline) {
			t.Fatal("reader never parked")
		}
		time.Sleep(time.Millisecond)
	}
	want := &ptrTarget{7}
	if err := rt.Atomic(1, 1, func(tx *Tx) error {
		WritePtr(tx, c, want)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-got:
		if out != want {
			t.Fatalf("reader woke with %p, want %p", out, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not wake on the WritePtr commit")
	}
}

// ptrList is a minimal sorted list whose nodes embed their link cell, the
// layout the stmds structures use.
type ptrList struct{ head Ptr[ptrNode] }

type ptrNode struct {
	key  int
	next Ptr[ptrNode]
}

func (l *ptrList) find(tx *Tx, k int) (prev *Ptr[ptrNode], n *ptrNode) {
	prev = &l.head
	for {
		n = ReadPtr(tx, prev)
		if n == nil || n.key >= k {
			return prev, n
		}
		prev = &n.next
	}
}

func (l *ptrList) insert(tx *Tx, k int) bool {
	prev, n := l.find(tx, k)
	if n != nil && n.key == k {
		return false
	}
	fresh := &ptrNode{key: k}
	fresh.next.Reset(n)
	WritePtr(tx, prev, fresh)
	return true
}

func (l *ptrList) remove(tx *Tx, k int) bool {
	prev, n := l.find(tx, k)
	if n == nil || n.key != k {
		return false
	}
	WritePtr(tx, prev, ReadPtr(tx, &n.next))
	return true
}

// TestPtrListStress runs concurrent Insert/Remove/Get on a Ptr-linked
// sorted list under Interleave; afterwards the list must be sorted, hold no
// duplicate, and hold exactly the keys whose successful inserts outnumber
// their successful removes.
func TestPtrListStress(t *testing.T) {
	rt := New(Config{Interleave: 4})
	var l ptrList
	const keys, workers, ops = 32, 4, 400
	var net [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				k, op := r.Intn(keys), r.Intn(3)
				var ok bool
				if err := rt.Atomic(txid.ThreadID(w), txid.TxnID(op), func(tx *Tx) error {
					switch op {
					case 0:
						ok = l.insert(tx, k)
					case 1:
						ok = l.remove(tx, k)
					default:
						_, n := l.find(tx, k)
						if n != nil && n.key < k {
							t.Errorf("find(%d) returned smaller key %d", k, n.key)
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if ok && op == 0 {
					net[k].Add(1)
				} else if ok && op == 1 {
					net[k].Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	got := make(map[int]bool)
	last := -1
	for n := l.head.Peek(); n != nil; n = n.next.Peek() {
		if n.key <= last {
			t.Fatalf("list not strictly sorted: %d after %d", n.key, last)
		}
		last = n.key
		got[n.key] = true
	}
	for k := range net {
		switch c := net[k].Load(); {
		case c != 0 && c != 1:
			t.Fatalf("key %d: net successful inserts %d, want 0 or 1", k, c)
		case (c == 1) != got[k]:
			t.Fatalf("key %d: present=%v, net inserts %d", k, got[k], c)
		}
	}
}
