package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Observatory defaults.
const (
	DefaultSampleEvery = 64
	DefaultRingSize    = 256
	DefaultTailK       = 32
	DefaultWindow      = 2 * time.Second
	forcedRingSize     = 256
)

// Config parameterizes an Observatory; zero fields take defaults.
type Config struct {
	// Shards and Workers size the aggregation and ring arrays.
	Shards  int
	Workers int

	// SampleEvery retains every Nth finished span in its worker's ring
	// (1 = every span).
	SampleEvery int

	// RingSize is the per-worker sampled-span ring capacity.
	RingSize int

	// TailK is how many slowest spans the reservoir keeps per window.
	TailK int

	// Window is the tail reservoir's rotation period.
	Window time.Duration
}

func (c Config) normalize() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.TailK <= 0 {
		c.TailK = DefaultTailK
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// ring is one worker's sampled-span retention. The worker is usually the
// only writer — the mutex exists for scrapers (a snapshot copies the
// slots out under it), so the lock is all but uncontended on the record
// path — but two rings are genuinely shared: the forced ring (any worker
// with a trace-bit span) and the watch thread's ring (every parked watch
// goroutine collects under the server's one watch thread). The tick is
// therefore an atomic add, and slot writes are already serialized by mu.
type ring struct {
	mu    sync.Mutex
	tick  atomic.Uint64 // sample countdown; atomic for the shared rings
	slots []Span
	next  int
	full  bool
	_     [32]byte // keep neighbors' hot fields apart
}

func (r *ring) offer(sp *Span, every int) {
	if r.tick.Add(1)%uint64(every) != 0 {
		return
	}
	r.mu.Lock()
	r.slots[r.next] = *sp
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

func (r *ring) collect(dst []Span) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.slots)
	}
	return append(dst, r.slots[:n]...)
}

// reservoir keeps the K slowest spans per rotation window (plus the
// previous window, so a scrape right after rotation still sees a tail).
// The floor of the current window's kept set is cached in an atomic so the
// overwhelmingly common case — a span faster than the current tail — is
// rejected with one load and no lock.
type reservoir struct {
	k      int
	window int64 // ns

	floor atomic.Uint32 // min TotalNs among cur when full; 0 otherwise

	mu      sync.Mutex
	started int64 // window start, unix nanos
	cur     []Span
	prev    []Span
}

func (t *reservoir) offer(sp *Span, now int64) {
	if sp.TotalNs <= t.floor.Load() {
		// Fast reject — but still rotate eventually even if all spans are
		// fast; rotation is also checked here via the lock-free clock read.
		if now-atomic.LoadInt64(&t.started) < t.window {
			return
		}
	}
	t.mu.Lock()
	if now-t.started >= t.window {
		t.prev = append(t.prev[:0], t.cur...)
		t.cur = t.cur[:0]
		atomic.StoreInt64(&t.started, now)
		t.floor.Store(0)
	}
	if sp.TotalNs > t.floor.Load() || len(t.cur) < t.k {
		if len(t.cur) < t.k {
			t.cur = append(t.cur, *sp)
		} else {
			// Replace the current minimum.
			min := 0
			for i := 1; i < len(t.cur); i++ {
				if t.cur[i].TotalNs < t.cur[min].TotalNs {
					min = i
				}
			}
			if t.cur[min].TotalNs < sp.TotalNs {
				t.cur[min] = *sp
			}
		}
		if len(t.cur) == t.k {
			min := t.cur[0].TotalNs
			for i := 1; i < len(t.cur); i++ {
				if t.cur[i].TotalNs < min {
					min = t.cur[i].TotalNs
				}
			}
			t.floor.Store(min)
		}
	}
	t.mu.Unlock()
}

func (t *reservoir) collect(dst []Span) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst = append(dst, t.cur...)
	return append(dst, t.prev...)
}

// Observatory is the process-wide span retention: per-worker sampled
// rings, a forced-trace ring, the K-slowest tail reservoir, and the
// per-shard per-phase aggregation.
type Observatory struct {
	cfg Config

	rings  []ring
	agg    []shardAgg
	tail   reservoir
	forced ring
}

// New returns an Observatory for the given topology.
func New(cfg Config) *Observatory {
	cfg = cfg.normalize()
	o := &Observatory{
		cfg:   cfg,
		rings: make([]ring, cfg.Workers),
		agg:   make([]shardAgg, cfg.Shards),
	}
	for i := range o.rings {
		o.rings[i].slots = make([]Span, cfg.RingSize)
	}
	o.forced.slots = make([]Span, forcedRingSize)
	o.tail.k = cfg.TailK
	o.tail.window = int64(cfg.Window)
	o.tail.cur = make([]Span, 0, cfg.TailK)
	o.tail.prev = make([]Span, 0, cfg.TailK)
	return o
}

// Collect retains one finished span recorded by the given worker. It is
// allocation-free: retention copies the span by value into preallocated
// slots. Nil-safe (a nil Observatory drops the span), so callers can keep
// one unconditional call site.
func (o *Observatory) Collect(worker int, sp *Span) {
	if o == nil || sp == nil {
		return
	}
	sh := int(sp.Shard)
	if sh >= len(o.agg) {
		sh = len(o.agg) - 1
	}
	o.agg[sh].observeSpan(sp)
	if worker < 0 || worker >= len(o.rings) {
		worker = 0
	}
	o.rings[worker].offer(sp, o.cfg.SampleEvery)
	if sp.Forced {
		o.forced.offer(sp, 1)
	}
	now := sp.Begin + int64(sp.TotalNs)
	o.tail.offer(sp, now)
}

// Snapshot is the JSON shape served by /debug/trace.
type Snapshot struct {
	// Slowest is the tail reservoir (current + previous window), slowest
	// first.
	Slowest []SpanJSON `json:"slowest"`
	// Forced is the ring of spans whose requests set the protocol
	// trace-request bit, newest last.
	Forced []SpanJSON `json:"forced,omitempty"`
	// Sampled is the per-worker 1-in-N sample, unordered.
	Sampled []SpanJSON `json:"sampled,omitempty"`
}

// SpanJSON is a Span rendered for humans and tests: phases and causes as
// strings, times in ns.
type SpanJSON struct {
	ID        uint32      `json:"id"`
	Op        uint8       `json:"op"`
	Shard     int         `json:"shard"`
	Worker    int         `json:"worker"`
	Forced    bool        `json:"forced,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Ops       int         `json:"ops"`
	Attempts  int         `json:"attempts"`
	Cause     string      `json:"cause"`
	BeginUnix int64       `json:"begin_unix_ns"`
	TotalNs   uint32      `json:"total_ns"`
	Events    []EventJSON `json:"events"`
}

// EventJSON is one rendered timeline entry.
type EventJSON struct {
	Phase   string `json:"phase"`
	Cause   string `json:"cause,omitempty"`
	Attempt uint16 `json:"attempt,omitempty"`
	StartNs uint32 `json:"start_ns"`
	DurNs   uint32 `json:"dur_ns"`
}

func renderSpan(sp *Span) SpanJSON {
	out := SpanJSON{
		ID:        sp.ID,
		Op:        sp.Op,
		Shard:     int(sp.Shard),
		Worker:    int(sp.Worker),
		Forced:    sp.Forced,
		Truncated: sp.Truncated,
		Ops:       int(sp.Ops),
		Attempts:  int(sp.Attempts),
		Cause:     sp.Cause.String(),
		BeginUnix: sp.Begin,
		TotalNs:   sp.TotalNs,
		Events:    make([]EventJSON, 0, sp.Len()),
	}
	for _, e := range sp.Events() {
		ej := EventJSON{
			Phase:   e.Phase.String(),
			Attempt: e.Attempt,
			StartNs: e.StartNs,
			DurNs:   e.DurNs,
		}
		if e.Cause != CauseNone {
			ej.Cause = e.Cause.String()
		}
		out.Events = append(out.Events, ej)
	}
	return out
}

func renderSpans(spans []Span) []SpanJSON {
	out := make([]SpanJSON, 0, len(spans))
	for i := range spans {
		out = append(out, renderSpan(&spans[i]))
	}
	return out
}

// Snapshot gathers the current retention state. Safe while writers run.
func (o *Observatory) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	slow := o.tail.collect(nil)
	sort.Slice(slow, func(i, j int) bool { return slow[i].TotalNs > slow[j].TotalNs })
	if len(slow) > o.cfg.TailK {
		slow = slow[:o.cfg.TailK]
	}
	var sampled []Span
	for i := range o.rings {
		sampled = o.rings[i].collect(sampled)
	}
	return Snapshot{
		Slowest: renderSpans(slow),
		Forced:  renderSpans(o.forced.collect(nil)),
		Sampled: renderSpans(sampled),
	}
}

// Agg gathers the per-shard per-phase aggregation. Safe while writers run.
func (o *Observatory) Agg() AggSnapshot {
	if o == nil {
		return AggSnapshot{}
	}
	out := AggSnapshot{Shards: make([]ShardAggSnapshot, 0, len(o.agg))}
	for sh := range o.agg {
		out.Shards = append(out.Shards, o.agg[sh].snapshot(sh))
	}
	return out
}
