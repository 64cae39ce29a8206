package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/server"
	"gstm/internal/xrand"
)

// The closed loop: numConns connections, each served by one goroutine that
// keeps callersPerConn callers in flight. A caller sends its next request
// only after its previous one is answered, as synchronous clients do.
const (
	numConns = 2
	// The caller's index rides in a request ID's low callerBits bits, so a
	// response names its caller without a lookup.
	callerBits     = 3
	callersPerConn = 1 << callerBits
	// drainTimeout bounds how long a run waits for its connections after
	// it stops issuing; past it they are closed and the run fails.
	drainTimeout = 30 * time.Second
)

// origin is the zero of every recorded timestamp, so operation spans and
// setup-stage spans share one time axis.
var origin = time.Now()

// segment is one timed stretch of a measured run. Requests sent while a
// traced segment is current carry the protocol trace bit.
type segment struct {
	end    time.Duration // offset from the run's start
	traced bool
}

// chunked is an append-only store grown in fixed chunks, so a long traced
// run's span memory grows linearly instead of doubling.
type chunked[T any] struct{ chunks [][]T }

const chunkLen = 1 << 14

func (c *chunked[T]) add(v T) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == chunkLen {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], v)
}

func (c *chunked[T]) appendTo(dst []T) []T {
	for _, ch := range c.chunks {
		dst = append(dst, ch...)
	}
	return dst
}

// opSpan is the benchmark-side span of one traced operation.
type opSpan struct {
	sendNs, respNs int64 // since origin
	id             uint32
	conn           uint8
	op             server.Op
	status         server.Status
}

// segStats is what one connection saw complete within one segment.
type segStats struct {
	done uint64
	lat  [numKinds]latHist // send to response
}

// loadSpec describes one closed-loop run.
type loadSpec struct {
	addr string
	// seed and stream select the callers' generators: stream keeps the
	// preload, warm-up and measured runs of one seed on distinct inputs.
	seed   uint64
	stream int
	// next draws a caller's next operation; false retires the caller.
	next  func(r *xrand.Rand) (benchOp, bool)
	check func(a *acct, o benchOp, st server.Status, v uint64)
	// segs, when non-nil, makes the run record latency and completions per
	// segment; the run's control function decides when it ends.
	segs []segment
}

// loadResult merges every connection's outcome.
type loadResult struct {
	sent, answered, failed uint64
	idMismatches           uint64
	segs                   []segStats
	spans                  []opSpan
	acct                   acct
}

// runLoad dials the connections, starts the callers, and calls control
// with the start time. When control returns (or, with a nil control, when
// every caller has retired) the callers stop issuing and the run drains
// every outstanding request before returning.
func runLoad(spec loadSpec, control func(t0 time.Time)) (loadResult, error) {
	conns := make([]*loadConn, numConns)
	var stop atomic.Bool
	start := make(chan struct{})
	for i := range conns {
		nc, err := net.Dial("tcp", spec.addr)
		if err != nil {
			for _, c := range conns[:i] {
				_ = c.nc.Close()
			}
			return loadResult{}, fmt.Errorf("dial %s: %w", spec.addr, err)
		}
		conns[i] = newLoadConn(i, nc, &spec, &stop)
	}
	var wg sync.WaitGroup
	var t0 time.Time
	for _, c := range conns {
		wg.Add(1)
		go func(c *loadConn) {
			defer wg.Done()
			<-start
			c.run(t0)
		}(c)
	}
	t0 = time.Now()
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if control != nil {
		control(t0)
		stop.Store(true)
	}
	var err error
	select {
	case <-done:
	case <-time.After(drainTimeout):
		for _, c := range conns {
			_ = c.nc.Close()
		}
		<-done
		err = errors.New("connections did not drain")
	}
	for _, c := range conns {
		_ = c.nc.Close()
	}
	res := mergeConns(conns, len(spec.segs))
	for _, c := range conns {
		if c.err != nil && err == nil {
			err = fmt.Errorf("conn %d: %w", c.idx, c.err)
		}
	}
	return res, err
}

func mergeConns(conns []*loadConn, nseg int) loadResult {
	res := loadResult{segs: make([]segStats, nseg)}
	for _, c := range conns {
		res.sent += c.sent
		res.answered += c.answered
		res.failed += c.failed
		res.idMismatches += c.idMismatches
		res.acct.merge(c.acct)
		res.spans = c.spans.appendTo(res.spans)
		for s := range c.segs {
			res.segs[s].done += c.segs[s].done
			for k := range c.segs[s].lat {
				res.segs[s].lat[k].merge(&c.segs[s].lat[k])
			}
		}
	}
	return res
}

// caller is one closed-loop caller's in-flight request.
type caller struct {
	r      *xrand.Rand
	id     uint32
	busy   bool
	traced bool
	o      benchOp
	send   time.Time
}

// loadConn is one connection and the goroutine-local state of its callers.
type loadConn struct {
	idx  int
	nc   net.Conn
	spec *loadSpec
	stop *atomic.Bool

	callers     [callersPerConn]caller
	seq         uint32
	outstanding int
	seg         int
	wbuf        []byte
	pend        []int // callers whose requests sit in wbuf
	txn         [2]server.TxnOp

	sent, answered, failed uint64
	idMismatches           uint64
	segs                   []segStats
	spans                  chunked[opSpan]
	acct                   acct
	err                    error
}

func newLoadConn(idx int, nc net.Conn, spec *loadSpec, stop *atomic.Bool) *loadConn {
	c := &loadConn{idx: idx, nc: nc, spec: spec, stop: stop, segs: make([]segStats, len(spec.segs))}
	for i := range c.callers {
		c.callers[i].r = xrand.NewThread(spec.seed, spec.stream<<16+idx*callersPerConn+i)
	}
	return c
}

func (c *loadConn) run(t0 time.Time) {
	br := bufio.NewReaderSize(c.nc, 2*callersPerConn*server.RespFrameLen)
	for i := range c.callers {
		c.issue(i)
	}
	var frame [server.RespFrameLen]byte
	for c.err == nil && c.flush() && c.outstanding > 0 {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			c.err = err
			break
		}
		c.handle(frame[:], t0)
		for c.err == nil && br.Buffered() >= server.RespFrameLen {
			_, _ = io.ReadFull(br, frame[:]) // buffered: cannot fail
			c.handle(frame[:], t0)
		}
	}
	if c.err != nil {
		c.abandon()
	}
}

// issue draws caller i's next operation and appends its frame to wbuf.
func (c *loadConn) issue(i int) {
	cl := &c.callers[i]
	o, ok := c.spec.next(cl.r)
	if !ok {
		return // retired: nothing more to send
	}
	c.seq++
	cl.id = c.seq<<callerBits | uint32(i)
	cl.busy, cl.o = true, o
	cl.traced = len(c.spec.segs) > 0 && c.spec.segs[c.seg].traced
	req := server.Request{Op: o.op, ID: cl.id, Key: o.key, Arg: o.arg, Trace: cl.traced}
	if o.op == server.OpTxn {
		c.txn[0] = server.TxnOp{Op: server.OpAdd, Key: o.key, Arg: ^uint64(0)} // -1
		c.txn[1] = server.TxnOp{Op: server.OpAdd, Key: o.key2, Arg: 1}
		c.wbuf = server.AppendTxnRequest(c.wbuf, req, c.txn[:])
	} else {
		c.wbuf = server.AppendRequest(c.wbuf, req)
	}
	c.pend = append(c.pend, i)
	c.sent++
	c.outstanding++
}

// flush stamps every pending request's send time and writes them in one
// call. It reports false when the write failed.
func (c *loadConn) flush() bool {
	if len(c.wbuf) == 0 {
		return true
	}
	now := time.Now()
	for _, i := range c.pend {
		c.callers[i].send = now
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf, c.pend = c.wbuf[:0], c.pend[:0]
	if err != nil {
		c.err = err
		return false
	}
	return true
}

// handle settles one response frame and lets its caller issue again.
func (c *loadConn) handle(frame []byte, t0 time.Time) {
	if n := binary.BigEndian.Uint32(frame[:4]); n != server.RespFrameLen-4 {
		c.err = fmt.Errorf("response frame length %d", n)
		return
	}
	resp, err := server.DecodeResponse(frame[4:])
	if err != nil {
		c.err = err
		return
	}
	cl := &c.callers[resp.ID&(callersPerConn-1)]
	if !cl.busy || cl.id != resp.ID {
		c.idMismatches++
		c.err = fmt.Errorf("response id %#x matches no outstanding request", resp.ID)
		return
	}
	now := time.Now()
	if segs := c.spec.segs; len(segs) > 0 {
		el := now.Sub(t0)
		for c.seg < len(segs)-1 && el >= segs[c.seg].end {
			c.seg++
		}
		st := &c.segs[c.seg]
		st.done++
		st.lat[kindOf(cl.o.op)].add(uint64(now.Sub(cl.send)))
	}
	if cl.traced {
		c.spans.add(opSpan{
			sendNs: cl.send.Sub(origin).Nanoseconds(), respNs: now.Sub(origin).Nanoseconds(),
			id: resp.ID, conn: uint8(c.idx), op: cl.o.op, status: resp.Status,
		})
	}
	c.settle(cl, resp.Status, resp.Value)
	if !c.stop.Load() {
		c.issue(int(resp.ID & (callersPerConn - 1)))
	}
}

func (c *loadConn) settle(cl *caller, st server.Status, v uint64) {
	if statusOK(st) {
		c.answered++
	} else {
		c.failed++
	}
	c.spec.check(&c.acct, cl.o, st, v)
	cl.busy = false
	c.outstanding--
}

// abandon counts every request still in flight on a failed connection as
// unanswered.
func (c *loadConn) abandon() {
	for i := range c.callers {
		if cl := &c.callers[i]; cl.busy {
			c.settle(cl, unanswered, 0)
		}
	}
}
