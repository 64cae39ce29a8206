package server

import (
	"errors"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/wal"
)

// Transaction sites: one static TM_BEGIN(ID) per operation kind, so the
// Thread State Automaton's (site, thread) states describe what the server
// actually does. A batch only ever coalesces operations of one kind, which
// keeps the site label exact (see DESIGN.md "Batching rules"). Sites are
// per shard: the same kind maps to the same site on every shard's
// automaton.
const (
	siteGet gstm.TxnID = iota
	sitePut
	siteAdd
	siteDel
	// siteScan is the WAL's consistent snapshot scan and recovery replay —
	// run on the scan role's thread, outside the WAL stager range, so its
	// commits never touch a staging slot.
	siteScan
	// siteWatch is the blocking long-poll site (OpWatch/OpWaitKey), run on
	// the watch role's thread — any number of watches may be parked on it
	// concurrently (see watch.go).
	siteWatch
	// siteTxn is the multi-key transaction site (OpTxn), run on the worker
	// that received the transaction (see execTxn).
	siteTxn
)

func site(op Op) gstm.TxnID {
	switch op {
	case OpGet:
		return siteGet
	case OpPut:
		return sitePut
	case OpAdd:
		return siteAdd
	default:
		return siteDel
	}
}

// task is one queued data operation awaiting a worker. ops holds an
// OpTxn's sub-operations (owned by the task, decoded off the connection's
// reusable payload buffer); nil for every other op. enq/decNs carry the
// reader's span timestamps: when the task was queued (unix nanos) and how
// long the frame read + decode took, so the worker can reconstruct the
// request's decode and queue-wait phases without another clock read.
// follow ties the task to its client burst (see dispatch): the first task
// carries how many more of the burst follow it, each follower carries -1.
type task struct {
	req    Request
	ops    []TxnOp
	c      *conn
	enq    int64
	decNs  int64
	follow int32
}

// opResult is one operation's outcome, filled inside the batch
// transaction body (and therefore overwritten wholesale when the body
// re-runs after a conflict).
type opResult struct {
	status Status
	value  uint64
	delta  int64 // liveKeys adjustment, applied only after commit
}

// worker executes batches of operations as transactions on a fixed STM
// thread: worker w is gstm.ThreadID(w) on every shard it touches. A batch
// is scatter-gathered by home shard — one sub-transaction per shard, in
// ascending shard order — so a batch that happens to live on one shard
// runs exactly as the unsharded server ran it. An OpTxn is always a batch
// of its own and runs all-or-nothing across its shards (see execTxn).
type worker struct {
	srv   *Server
	id    gstm.ThreadID
	queue chan task

	pending    task // holdover that closed the previous batch
	hasPending bool
	// owed is how many tasks of bursts already begun in this queue have
	// not arrived yet; while it is positive the batch waits for them.
	owed int32

	batch   []task
	results []opResult
	plan    *shard.Plan
	resp    []byte
	runOpts [1]gstm.TxOption // reused option slice (ReadOnly or MaxAttempts)

	// spans[sh] is the scratch span for shard sh's sub-transaction of the
	// current batch; spanOpts[sh] is the prebuilt option slice threading it
	// into that shard's Run call (slot 0 is refilled per batch with the
	// ReadOnly/MaxAttempts option). Reused every batch: the observatory
	// retains spans by value, so the record path never allocates.
	spans    []obs.Span
	spanOpts [][]gstm.TxOption
	// planOpt hands each shard's Run its spanOpts; built once, since a
	// closure built per batch would allocate.
	planOpt shard.PlanOption

	// stgs[sh] is shard sh's WAL redo staging for the running transaction;
	// valid only while logging is true (durable server, mutating batch).
	// deltas[sh] is an OpTxn's live-key adjustment on shard sh.
	stgs    []wal.Staging
	logging bool
	deltas  []int64
}

func newWorker(s *Server, id int) *worker {
	w := &worker{
		srv:     s,
		id:      gstm.ThreadID(id),
		queue:   make(chan task, s.cfg.QueueDepth),
		batch:   make([]task, 0, s.cfg.Batch),
		results: make([]opResult, s.cfg.Batch),
		plan:    s.router.NewPlan(),
		spans:   make([]obs.Span, s.cfg.Shards),
		stgs:    make([]wal.Staging, s.cfg.Shards),
		deltas:  make([]int64, s.cfg.Shards),
	}
	w.spanOpts = make([][]gstm.TxOption, s.cfg.Shards)
	for sh := range w.spanOpts {
		w.spanOpts[sh] = []gstm.TxOption{gstm.WithMaxAttempts(0), gstm.WithSpan(&w.spans[sh])}
	}
	w.planOpt = shard.WithShardOptions(func(sh int) []gstm.TxOption { return w.spanOpts[sh] })
	return w
}

func (w *worker) loop() {
	for {
		if !w.fillBatch() {
			return
		}
		var it *ackItem
		if w.batch[0].req.Op == OpTxn {
			it = w.execTxn()
		} else {
			it = w.execBatch()
		}
		w.reply(it)
	}
}

// fillBatch blocks for the first operation (the holdover from the last
// round, if any), then drains queued operations into the batch while they
// share the first one's kind and touch pairwise-disjoint keys. It waits
// for the rest of a client burst that has begun arriving (owed), so one
// burst becomes one batch; otherwise it takes only what is already queued.
// The first operation violating either rule is held over — never
// reordered past, so per-connection request order is preserved within a
// worker. An OpTxn never coalesces: it closes a running batch as the
// holdover and is always a batch of one. Returns false when the server
// is stopping.
func (w *worker) fillBatch() bool {
	w.batch = w.batch[:0]
	if w.hasPending {
		w.batch = append(w.batch, w.pending)
		w.hasPending = false
	} else {
		select {
		case t := <-w.queue:
			w.owed += t.follow
			w.batch = append(w.batch, t)
		case <-w.srv.stop:
			return false
		}
	}
	kind := w.batch[0].req.Op
	for kind != OpTxn && len(w.batch) < w.srv.cfg.Batch {
		var t task
		select {
		case t = <-w.queue:
		default:
			if w.owed == 0 {
				return true
			}
			// The rest of the burst is decoded and being queued now.
			select {
			case t = <-w.queue:
			case <-w.srv.stop:
				return true
			}
		}
		w.owed += t.follow
		if t.req.Op != kind || w.batchHasKey(t.req.Key) {
			w.pending, w.hasPending = t, true
			return true
		}
		w.batch = append(w.batch, t)
	}
	return true
}

func (w *worker) batchHasKey(k uint64) bool {
	for i := range w.batch {
		if w.batch[i].req.Key == k {
			return true
		}
	}
	return false
}

// execBatch scatter-gathers the batch by home shard and runs one
// transaction per touched shard, leaving every operation's outcome in
// w.results. Operations against disjoint keys are independent, so
// folding a shard's sub-batch into one atomic block changes neither their
// results nor the store's final state versus running them back to back —
// it only spends one commit (and one Tseq slot) for up to Batch
// operations. Shards commit independently: a cross-shard batch is not
// atomic as a whole, which is fine for the same reason — its operations
// never share a key. A durable batch returns the ack item carrying its
// WAL obligations (see reply).
func (w *worker) execBatch() *ackItem {
	s := w.srv
	kind := w.batch[0].req.Op
	w.plan.Build(len(w.batch), func(i int) uint64 { return w.batch[i].req.Key })
	if kind == OpGet {
		w.runOpts[0] = gstm.WithReadOnly()
	} else {
		w.runOpts[0] = gstm.WithMaxAttempts(s.cfg.MaxAttempts)
	}

	// Open one span per touched shard before running: the decode and
	// queue-wait phases are reconstructed from the first homed task's
	// timestamps, then the STM run appends gate/retry/commit events.
	deq := time.Now().UnixNano()
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		forced := false
		for _, i := range idxs {
			if w.batch[i].req.Trace {
				forced = true
				break
			}
		}
		w.openSpan(sh, &w.batch[idxs[0]], len(idxs), forced, deq)
		w.spanOpts[sh][0] = w.runOpts[0]
	}

	durable := s.wals != nil && kind != OpGet
	w.plan.Run(nil, w.id, site(kind), func(tx *gstm.Tx, sh int, idxs []int) error {
		if durable {
			if err := w.stage(sh, site(kind)); err != nil {
				return err
			}
		}
		w.logging = durable
		for _, i := range idxs {
			r := &w.batch[i].req
			w.results[i] = w.applyOp(tx, sh, r.Op, r.Key, r.Arg)
		}
		return nil
	}, w.planOpt)

	var it *ackItem
	if durable {
		it = s.getAckItem(len(w.batch))
		it.worker = int(w.id)
	}
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		err := w.plan.Err(sh)
		var seq uint64
		if durable {
			for _, i := range idxs {
				it.shardOf[i] = int32(sh)
			}
			if err != nil {
				// The failed attempt may have staged ops; drop them before the
				// next transaction on this shard can inherit them.
				s.wals[sh].Abandon(int(w.id))
			} else if seq, err = s.wals[sh].ThreadSeq(int(w.id)); err != nil {
				err = errWALUnavailable // the log refused the commit's record
			}
		}
		if err != nil {
			st, cause := statusOf(err)
			if st == StatusUnavailable {
				s.router.System(sh).Telemetry().WALRefused(uint64(w.id))
			}
			for _, i := range idxs {
				w.results[i] = opResult{status: st}
			}
			w.finishSpan(sh, cause)
			continue
		}
		var delta int64
		for _, i := range idxs {
			delta += w.results[i].delta
		}
		if durable {
			// Don't block for the flush here: hand the record seq to the
			// acker, which withholds the responses until it is durable per
			// the mode — written (relaxed) or fsynced (strict) — while this
			// worker moves on to its next batch. The acker also does this
			// group's accounting, post-ack, and stamps the span's WAL-ack
			// phase (the span rides in the wait).
			it.waits = append(it.waits, ackWait{sh: sh, seq: seq, span: w.spans[sh], spanned: true, nops: len(idxs), delta: delta})
			continue
		}
		s.account(sh, len(idxs), delta)
		w.finishSpan(sh, obs.CauseNone)
	}
	return it
}

// execTxn runs the batch's single OpTxn as one transaction over every
// shard its sub-ops touch — all-or-nothing across shards through
// Router.RunMulti (DESIGN.md "Cross-shard commit"), degenerating to the
// ordinary single-shard fast path when they share a home — as this
// worker's thread at siteTxn, and leaves its one result in w.results[0].
// A committed durable transaction returns the ack item carrying one wait
// per participant shard.
func (w *worker) execTxn() *ackItem {
	s := w.srv
	t := &w.batch[0]
	w.plan.Build(len(t.ops), func(i int) uint64 { return t.ops[i].Key })
	shards := w.plan.Active()
	mutating := false
	for _, op := range t.ops {
		mutating = mutating || op.Op != OpGet
	}
	durable := s.wals != nil && mutating
	// One span per transaction, attributed to the first sub-op's shard.
	sh0 := s.router.HomeOf(t.ops[0].Key)
	w.openSpan(sh0, t, len(t.ops), t.req.Trace, time.Now().UnixNano())
	w.spanOpts[sh0][0] = gstm.WithMaxAttempts(s.cfg.MaxAttempts)

	var value uint64
	err := s.router.RunMulti(nil, shards, w.id, siteTxn, func(m *shard.MultiTx) error {
		for _, sh := range shards {
			w.deltas[sh] = 0
			if durable {
				if err := w.stage(sh, siteTxn); err != nil {
					return err
				}
			}
		}
		w.logging = durable
		for _, op := range t.ops {
			sh := s.router.HomeOf(op.Key)
			r := w.applyOp(m.On(sh), sh, op.Op, op.Key, op.Arg)
			// Sub-op semantics are unconditional: an absent key reads and
			// deletes as 0 without failing the transaction, and a Put yields
			// its argument (statuses describe the whole transaction).
			value = r.value
			if op.Op == OpPut {
				value = op.Arg
			}
			w.deltas[sh] += r.delta
		}
		return nil
	}, w.spanOpts[sh0]...)
	if durable && err != nil {
		// A failed attempt may have staged ops on any participant; drop
		// them before this worker's next transaction on those shards.
		for _, sh := range shards {
			s.wals[sh].Abandon(int(w.id))
		}
	}

	var it *ackItem
	if durable && err == nil {
		it = s.getAckItem(1)
		it.worker, it.shardOf[0] = int(w.id), shardAll
		for _, sh := range shards {
			seq, werr := s.wals[sh].ThreadSeq(int(w.id))
			if werr != nil {
				// The commit executed in memory, but a participant's log
				// refused its record: durability cannot be promised.
				err = errWALUnavailable
				continue
			}
			it.waits = append(it.waits, ackWait{sh: sh, seq: seq, nops: len(w.plan.Group(sh)), delta: w.deltas[sh]})
		}
	}
	if err != nil {
		if it != nil {
			s.ackPool.Put(it)
		}
		st, cause := statusOf(err)
		if st == StatusUnavailable {
			for _, sh := range shards {
				s.router.System(sh).Telemetry().WALRefused(uint64(w.id))
			}
		}
		w.results[0] = opResult{status: st}
		w.finishSpan(sh0, cause)
		return nil
	}
	w.results[0] = opResult{value: value}
	if it != nil {
		// The span rides on the first wait; the others are span-less so
		// the observatory sees exactly one record per transaction.
		it.waits[0].span, it.waits[0].spanned = w.spans[sh0], true
		return it
	}
	for _, sh := range shards {
		s.account(sh, len(w.plan.Group(sh)), w.deltas[sh])
	}
	w.finishSpan(sh0, obs.CauseNone)
	return nil
}

// reply delivers the batch's results. A durable batch goes to the acker
// (as copies: these slices are reused by the next batch), which queues
// the responses and releases inflight once the WAL obligations are met;
// otherwise the responses are queued here.
func (w *worker) reply(it *ackItem) {
	s := w.srv
	if it != nil {
		it.tasks = append(it.tasks[:0], w.batch...)
		it.results = append(it.results[:0], w.results[:len(w.batch)]...)
		s.acks <- it
		return
	}
	w.resp = writeResponses(w.batch, w.results, w.resp)
	s.inflight.Add(-len(w.batch))
}

// writeResponses queues results[i] for every task on its connection's
// writer, coalescing consecutive same-connection frames into one
// writeFrames call; no syscall happens here. buf is scratch, returned for
// reuse.
func writeResponses(tasks []task, results []opResult, buf []byte) []byte {
	i := 0
	for i < len(tasks) {
		c := tasks[i].c
		buf = buf[:0]
		j := i
		for j < len(tasks) && tasks[j].c == c {
			buf = AppendResponse(buf, Response{
				ID:     tasks[j].req.ID,
				Status: results[j].status,
				Value:  results[j].value,
			})
			j++
		}
		c.writeFrames(buf)
		i = j
	}
	return buf
}

// statusOf maps a failed transaction's error to the status every one of
// its operations answers with and the span's terminal cause.
func statusOf(err error) (Status, obs.Cause) {
	switch {
	case errors.Is(err, wal.ErrFailed): // includes errWALUnavailable
		return StatusUnavailable, obs.CauseWALUnavailable
	case errors.Is(err, gstm.ErrRetryBudgetExhausted):
		return StatusBudget, obs.CauseRetryBudget
	case errors.Is(err, gstm.ErrCanceled):
		return StatusCanceled, obs.CauseCanceled
	default:
		// Not in the abort taxonomy (a body error, not an STM outcome);
		// spurious is the closest "not a modeled conflict" label.
		return StatusBadRequest, obs.CauseSpurious
	}
}

// stage opens shard sh's WAL redo staging for the attempt about to run.
// Staging inside the body means a retry starts a fresh record; the commit
// event stamps the staged ops with the commit's wv (for a cross-shard
// commit, the one exchanged wv every participant records). A dead log
// fails fast: committing state whose durability can never be promised
// would make memory diverge from disk.
func (w *worker) stage(sh int, site gstm.TxnID) error {
	l := w.srv.wals[sh]
	if l.Failed() {
		return errWALUnavailable
	}
	w.stgs[sh] = l.Stage(int(w.id), uint16(site))
	return nil
}

// applyOp performs one operation inside shard sh's sub-transaction,
// staging each mutation's redo image on stgs[sh] when logging is on. The
// result has single-op semantics: an absent key's Get or Del answers
// StatusNotFound, and a Put yields 1 when it replaced a value.
func (w *worker) applyOp(tx *gstm.Tx, sh int, op Op, key, arg uint64) opResult {
	st := w.srv.stores[sh]
	k := int64(key)
	switch op {
	case OpGet:
		v, ok := st.Get(tx, k)
		if !ok {
			return opResult{status: StatusNotFound}
		}
		return opResult{value: v}
	case OpPut:
		if st.Set(tx, k, arg) {
			w.stagePut(sh, key, arg)
			return opResult{value: 1}
		}
		st.InsertNoCount(tx, k, arg)
		w.stagePut(sh, key, arg)
		return opResult{value: 0, delta: 1}
	case OpAdd:
		if v, ok := st.Get(tx, k); ok {
			nv := uint64(int64(v) + int64(arg))
			st.Set(tx, k, nv)
			w.stagePut(sh, key, nv)
			return opResult{value: nv}
		}
		st.InsertNoCount(tx, k, arg)
		w.stagePut(sh, key, arg)
		return opResult{value: arg, delta: 1}
	default: // OpDel
		if !st.RemoveNoCount(tx, k) {
			return opResult{status: StatusNotFound}
		}
		if w.logging {
			w.stgs[sh].Del(key)
		}
		return opResult{delta: -1}
	}
}

func (w *worker) stagePut(sh int, key, val uint64) {
	if w.logging {
		w.stgs[sh].Put(key, val)
	}
}

// openSpan starts shard sh's scratch span for a transaction of n
// operations, reconstructing the decode and queue-wait phases from the
// first task's timestamps (deq is when the batch left the queue); the STM
// run then appends gate/retry/commit events.
func (w *worker) openSpan(sh int, first *task, n int, forced bool, deq int64) {
	sp := &w.spans[sh]
	begin := first.enq - first.decNs
	sp.Start(first.req.ID, uint8(first.req.Op), uint8(sh), uint8(w.id), n, forced, begin)
	sp.Add(obs.PhaseDecode, obs.CauseNone, 0, begin, first.decNs)
	sp.Add(obs.PhaseQueue, obs.CauseNone, 0, first.enq, deq-first.enq)
}

// finishSpan closes shard sh's scratch span with the sub-transaction's
// terminal cause and hands it to the observatory (which copies it out).
func (w *worker) finishSpan(sh int, cause obs.Cause) {
	sp := &w.spans[sh]
	sp.Finish(cause, time.Now().UnixNano())
	w.srv.obs.Collect(int(w.id), sp)
}
