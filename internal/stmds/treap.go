package stmds

import "gstm/internal/tl2"

// Map is a transactional ordered map implemented as a treap: a binary
// search tree on keys that is simultaneously a heap on per-key pseudo-random
// priorities, giving expected O(log n) paths. It stands in for STAMP's
// rbtree.c (vacation's reservation tables): transactions read a
// root-to-leaf path and perform local rotations, the same conflict
// footprint as a red-black tree without its recoloring machinery.
//
// Priorities are derived deterministically from the key (splitmix64), so
// the tree shape is a pure function of the key set — helpful for
// reproducible experiments.
type Map[V any] struct {
	root tl2.Ptr[treapNode[V]]
	size *tl2.Var[int]
}

// treapNode embeds its cells by value; a fresh node's val is initialised
// before the node is linked in (the zero left/right cells hold nil).
type treapNode[V any] struct {
	key         int64
	prio        uint64
	left, right tl2.Ptr[treapNode[V]]
	val         tl2.Var[V]
}

// NewMap returns an empty ordered map.
func NewMap[V any]() *Map[V] {
	return &Map[V]{size: tl2.NewVar(0)}
}

func prioOf(key int64) uint64 {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Get returns the value stored under k.
func (m *Map[V]) Get(tx *tl2.Tx, k int64) (V, bool) {
	n := tl2.ReadPtr(tx, &m.root)
	for n != nil {
		switch {
		case k < n.key:
			n = tl2.ReadPtr(tx, &n.left)
		case k > n.key:
			n = tl2.ReadPtr(tx, &n.right)
		default:
			return tl2.Read(tx, &n.val), true
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(tx *tl2.Tx, k int64) bool {
	_, ok := m.Get(tx, k)
	return ok
}

// Insert adds k→v, reporting false when k already exists.
func (m *Map[V]) Insert(tx *tl2.Tx, k int64, v V) bool {
	if !m.insert(tx, &m.root, k, v) {
		return false
	}
	tl2.Write(tx, m.size, tl2.Read(tx, m.size)+1)
	return true
}

func (m *Map[V]) insert(tx *tl2.Tx, cell *tl2.Ptr[treapNode[V]], k int64, v V) bool {
	n := tl2.ReadPtr(tx, cell)
	if n == nil {
		n = &treapNode[V]{key: k, prio: prioOf(k)}
		n.val.Reset(v)
		tl2.WritePtr(tx, cell, n)
		return true
	}
	switch {
	case k == n.key:
		return false
	case k < n.key:
		if !m.insert(tx, &n.left, k, v) {
			return false
		}
		if child := tl2.ReadPtr(tx, &n.left); child != nil && child.prio > n.prio {
			rotateRight(tx, cell, n)
		}
	default:
		if !m.insert(tx, &n.right, k, v) {
			return false
		}
		if child := tl2.ReadPtr(tx, &n.right); child != nil && child.prio > n.prio {
			rotateLeft(tx, cell, n)
		}
	}
	return true
}

// Set updates the value of an existing key, reporting whether it existed.
func (m *Map[V]) Set(tx *tl2.Tx, k int64, v V) bool {
	n := tl2.ReadPtr(tx, &m.root)
	for n != nil {
		switch {
		case k < n.key:
			n = tl2.ReadPtr(tx, &n.left)
		case k > n.key:
			n = tl2.ReadPtr(tx, &n.right)
		default:
			tl2.Write(tx, &n.val, v)
			return true
		}
	}
	return false
}

// Upsert inserts k→v or overwrites an existing value.
func (m *Map[V]) Upsert(tx *tl2.Tx, k int64, v V) {
	if !m.Set(tx, k, v) {
		m.Insert(tx, k, v)
	}
}

// Remove deletes k, reporting whether it was present.
func (m *Map[V]) Remove(tx *tl2.Tx, k int64) bool {
	if !m.remove(tx, &m.root, k) {
		return false
	}
	tl2.Write(tx, m.size, tl2.Read(tx, m.size)-1)
	return true
}

func (m *Map[V]) remove(tx *tl2.Tx, cell *tl2.Ptr[treapNode[V]], k int64) bool {
	n := tl2.ReadPtr(tx, cell)
	if n == nil {
		return false
	}
	switch {
	case k < n.key:
		return m.remove(tx, &n.left, k)
	case k > n.key:
		return m.remove(tx, &n.right, k)
	}
	// Found: rotate the higher-priority child up until n is a (half-)leaf.
	l := tl2.ReadPtr(tx, &n.left)
	r := tl2.ReadPtr(tx, &n.right)
	switch {
	case l == nil:
		tl2.WritePtr(tx, cell, r)
		return true
	case r == nil:
		tl2.WritePtr(tx, cell, l)
		return true
	case l.prio > r.prio:
		rotateRight(tx, cell, n)
		return m.remove(tx, &l.right, k)
	default:
		rotateLeft(tx, cell, n)
		return m.remove(tx, &r.left, k)
	}
}

// rotateRight lifts n's left child into cell.
func rotateRight[V any](tx *tl2.Tx, cell *tl2.Ptr[treapNode[V]], n *treapNode[V]) {
	l := tl2.ReadPtr(tx, &n.left)
	tl2.WritePtr(tx, &n.left, tl2.ReadPtr(tx, &l.right))
	tl2.WritePtr(tx, &l.right, n)
	tl2.WritePtr(tx, cell, l)
}

// rotateLeft lifts n's right child into cell.
func rotateLeft[V any](tx *tl2.Tx, cell *tl2.Ptr[treapNode[V]], n *treapNode[V]) {
	r := tl2.ReadPtr(tx, &n.right)
	tl2.WritePtr(tx, &n.right, tl2.ReadPtr(tx, &r.left))
	tl2.WritePtr(tx, &r.left, n)
	tl2.WritePtr(tx, cell, r)
}

// Len returns the number of elements.
func (m *Map[V]) Len(tx *tl2.Tx) int { return tl2.Read(tx, m.size) }

// Range calls fn in ascending key order until fn returns false.
func (m *Map[V]) Range(tx *tl2.Tx, fn func(k int64, v V) bool) {
	m.walk(tx, tl2.ReadPtr(tx, &m.root), fn)
}

func (m *Map[V]) walk(tx *tl2.Tx, n *treapNode[V], fn func(k int64, v V) bool) bool {
	if n == nil {
		return true
	}
	if !m.walk(tx, tl2.ReadPtr(tx, &n.left), fn) {
		return false
	}
	if !fn(n.key, tl2.Read(tx, &n.val)) {
		return false
	}
	return m.walk(tx, tl2.ReadPtr(tx, &n.right), fn)
}
