package stmds

import "gstm/internal/tl2"

// Queue is a transactional FIFO queue (STAMP's queue.c), a linked queue
// whose head and tail pointers are transactional cells. Concurrent
// enqueuers conflict on the tail, dequeuers on the head — the same
// contention points as the original.
type Queue[V any] struct {
	head tl2.Ptr[qnode[V]]
	tail tl2.Ptr[qnode[V]]
	size *tl2.Var[int]
}

type qnode[V any] struct {
	val  V
	next tl2.Ptr[qnode[V]] // zero value: nil, ready before the node is linked
}

// NewQueue returns an empty queue.
func NewQueue[V any]() *Queue[V] {
	return &Queue[V]{size: tl2.NewVar(0)}
}

// Enqueue appends v.
func (q *Queue[V]) Enqueue(tx *tl2.Tx, v V) {
	n := &qnode[V]{val: v}
	t := tl2.ReadPtr(tx, &q.tail)
	if t == nil {
		tl2.WritePtr(tx, &q.head, n)
	} else {
		tl2.WritePtr(tx, &t.next, n)
	}
	tl2.WritePtr(tx, &q.tail, n)
	tl2.Write(tx, q.size, tl2.Read(tx, q.size)+1)
}

// Dequeue removes and returns the oldest element; ok is false when empty.
func (q *Queue[V]) Dequeue(tx *tl2.Tx) (v V, ok bool) {
	h := tl2.ReadPtr(tx, &q.head)
	if h == nil {
		var zero V
		return zero, false
	}
	next := tl2.ReadPtr(tx, &h.next)
	tl2.WritePtr(tx, &q.head, next)
	if next == nil {
		tl2.WritePtr(tx, &q.tail, nil)
	}
	tl2.Write(tx, q.size, tl2.Read(tx, q.size)-1)
	return h.val, true
}

// DequeueWait removes and returns the oldest element, calling tx.Retry
// when the queue is empty: under a blocking Run the goroutine parks on the
// queue head until an Enqueue commits; without blocking the Run returns
// ErrWouldBlock. The wakeup is precise — the park registers on exactly the
// cells this attempt read, so only commits touching this queue wake it.
func (q *Queue[V]) DequeueWait(tx *tl2.Tx) V {
	v, ok := q.Dequeue(tx)
	if !ok {
		tx.Retry()
	}
	return v
}

// Peek returns the oldest element without removing it.
func (q *Queue[V]) Peek(tx *tl2.Tx) (v V, ok bool) {
	h := tl2.ReadPtr(tx, &q.head)
	if h == nil {
		var zero V
		return zero, false
	}
	return h.val, true
}

// Len returns the number of elements.
func (q *Queue[V]) Len(tx *tl2.Tx) int { return tl2.Read(tx, q.size) }

// Empty reports whether the queue has no elements.
func (q *Queue[V]) Empty(tx *tl2.Tx) bool { return tl2.Read(tx, q.size) == 0 }
