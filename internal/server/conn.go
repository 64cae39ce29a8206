package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// The two ends of the request pipeline. Every accepted connection gets a
// reader goroutine (serveConn) and a writer goroutine (writeLoop).
//
// The reader decodes request frames and groups the data operations of one
// client burst — the frames already sitting complete in its read buffer,
// at most Config.Batch of them — into one dispatch onto one worker, picked
// round-robin per burst (see dispatch). The burst lands contiguously in
// that worker's queue, where fillBatch folds it into one transaction.
//
// The writer is the only goroutine that writes to the socket. Everything
// that answers a request — workers, the acker, watch goroutines, the
// reader for control ops — appends frames to the connection's outbound
// buffer with writeFrames, which never blocks and never touches the socket.
// The writer swaps that buffer for its spare and sends everything queued
// in one write(2) under writeTimeout.
//
// The buffer is bounded by backpressure, not by dropping: the reader
// reserves room for a burst's responses before admitting it, and the
// writer returns the room once they are written, so at most maxUnsent
// responses are owed or queued per connection. A client that
// stops reading therefore stops being read; its writer's deadline then
// evicts it — the socket closes without a flush, later responses are
// dropped, and gstm_conn_evictions_total counts it. One client that stops
// reading costs its own connection, never a worker.

// writeTimeout bounds one write(2) of a connection's queued responses; a
// client that leaves it unread that long is evicted.
const writeTimeout = 5 * time.Second

// connState is a connection's writer lifecycle.
type connState uint8

const (
	connOpen    connState = iota
	connClosing           // flush what is queued, then close
	connDead              // closed or being closed: drop frames
)

// conn is one client connection's outbound side.
type conn struct {
	nc   net.Conn
	stop <-chan struct{} // the server's: closed once the workers exit
	// maxUnsent bounds unsent: QueueDepth×Workers, the requests the worker
	// queues can hold, is as many responses as a connection may be owed.
	maxUnsent int
	kick      chan struct{} // wakes the writer: out filled, or state changed
	room      chan struct{} // wakes a reserving reader: unsent fell

	mu    sync.Mutex
	out   []byte // frames queued for the writer
	state connState
	// unsent counts response frames reserved by the reader and not yet
	// written to the socket; out never holds more than that.
	unsent int
}

func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{
		nc:        nc,
		stop:      s.stop,
		maxUnsent: s.cfg.QueueDepth * s.cfg.Workers,
		kick:      make(chan struct{}, 1),
		room:      make(chan struct{}, 1),
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// reserve waits until the connection has room for k more responses and
// claims it. It reports false once the connection is dead or the server
// stops. A connection with nothing unsent always has room, so a burst
// larger than the bound still proceeds.
func (c *conn) reserve(k int) bool {
	for {
		c.mu.Lock()
		if c.state == connDead {
			c.mu.Unlock()
			return false
		}
		if c.unsent == 0 || c.unsent+k <= c.maxUnsent {
			c.unsent += k
			c.mu.Unlock()
			return true
		}
		c.mu.Unlock()
		select {
		case <-c.room:
		case <-c.stop:
			return false
		}
	}
}

// writeFrames queues encoded response frames, already reserved, for the
// writer. It never blocks on the network.
func (c *conn) writeFrames(b []byte) {
	c.mu.Lock()
	if c.state == connDead {
		c.mu.Unlock()
		return
	}
	idle := len(c.out) == 0
	c.out = append(c.out, b...)
	c.mu.Unlock()
	if idle {
		signal(c.kick)
	}
}

// close asks the writer to flush what is queued and then close the socket.
func (c *conn) close() {
	c.mu.Lock()
	if c.state == connOpen {
		c.state = connClosing
	}
	c.mu.Unlock()
	signal(c.kick)
}

// writeLoop is the connection's writer: it drains the outbound buffer one
// write(2) at a time until the connection closes or its write misses the
// deadline, then closes the socket, which also ends the reader.
func (s *Server) writeLoop(c *conn) {
	defer s.dropConn(c)
	var spare []byte
	for {
		c.mu.Lock()
		buf, st := c.out, c.state
		if len(buf) == 0 && st == connClosing {
			break
		}
		if len(buf) == 0 {
			c.mu.Unlock()
			<-c.kick
			continue
		}
		c.out = spare[:0]
		c.mu.Unlock()

		_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := c.nc.Write(buf)
		spare = buf
		c.mu.Lock()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.evictions.Add(1)
			}
			break
		}
		c.unsent -= len(buf) / RespFrameLen
		c.mu.Unlock()
		signal(c.room)
	}
	// Entered with c.mu held.
	c.state, c.out = connDead, nil
	c.mu.Unlock()
	signal(c.room) // a reserving reader must see the connection die
}

// dropConn forgets a connection whose writer has finished and closes its
// socket.
func (s *Server) dropConn(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	_ = c.nc.Close()
}

// serveConn is the connection's reader. It decodes frames, answers the
// control plane inline, hands long-polls to their own goroutines and
// gathers data operations into bursts for dispatch. On exit the writer
// flushes what is queued and closes the socket.
func (s *Server) serveConn(c *conn) {
	defer c.close()
	br := bufio.NewReaderSize(c.nc, 64*ReqFrameLen)
	var hdr [4]byte
	var payload [MaxFrame]byte
	var respBuf []byte
	burst := make([]task, 0, s.cfg.Batch)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF or forced close
		}
		// The span's decode phase starts here: the frame header has
		// arrived, so everything until the frame joins its burst is the
		// server's own work (payload read off the bufio buffer, decode).
		dec0 := time.Now()
		n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		if n == 0 || n > MaxFrame {
			return // stream out of sync: drop the connection
		}
		if _, err := io.ReadFull(br, payload[:n]); err != nil {
			return
		}
		var req Request
		var ops []TxnOp
		var err error
		if Op(payload[0]&^TraceBit) == OpTxn {
			// The protocol's only variable-length request. The sub-op slice
			// is freshly allocated per transaction — it must outlive this
			// reusable payload buffer.
			req, ops, err = DecodeTxnRequest(payload[:n], nil)
		} else {
			req, err = DecodeRequest(payload[:n])
		}
		if err != nil {
			return // undecodable: cannot trust framing anymore
		}

		switch req.Op {
		case OpCtl, OpInfo:
			if !c.reserve(1) {
				return
			}
			respBuf = AppendResponse(respBuf[:0], s.handleControl(req))
			c.writeFrames(respBuf)
		case OpWatch, OpWaitKey:
			// Long-polls bypass the worker queue: each gets its own
			// goroutine that parks inside a blocking transaction, so a
			// thousand idle watches occupy zero workers. A watch arriving
			// mid-drain is refused before it can park.
			if !c.reserve(1) {
				return
			}
			if !s.admit(1) {
				respBuf = AppendResponse(respBuf[:0], Response{ID: req.ID, Status: StatusWouldBlock})
				c.writeFrames(respBuf)
				break
			}
			s.wg.Add(1)
			go func(req Request) {
				defer s.wg.Done()
				s.serveWatch(req, c)
			}(req)
		default:
			// From here the operation waits: for the rest of its burst,
			// for room on the connection, for its worker — the queue phase.
			enq := time.Now()
			burst = append(burst, task{req: req, ops: ops, c: c,
				enq: enq.UnixNano(), decNs: enq.Sub(dec0).Nanoseconds()})
		}
		if len(burst) > 0 && (len(burst) == s.cfg.Batch || !frameBuffered(br)) {
			if !s.dispatch(burst) {
				return
			}
			burst = burst[:0]
		}
	}
}

// frameBuffered reports whether br already holds the whole next frame, so
// reading it cannot block on the network.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	return br.Buffered() >= 4+n
}

// dispatch reserves the connection's room for one burst of decoded data
// operations, admits them and queues all of them, contiguously, on one
// worker: the round-robin cursor advances once per burst, not once per
// frame. The first task announces how many follow it (task.follow), so the
// worker waits for the rest of the burst instead of closing its batch
// early. Mid-drain the burst is refused with StatusShutdown. It returns
// false when the connection is dead or the server is stopping.
func (s *Server) dispatch(burst []task) bool {
	c := burst[0].c
	if !c.reserve(len(burst)) {
		return false
	}
	if !s.admit(len(burst)) {
		var buf []byte
		for i := range burst {
			buf = AppendResponse(buf, Response{ID: burst[i].req.ID, Status: StatusShutdown})
		}
		c.writeFrames(buf)
		return true
	}
	w := s.workers[int(s.rr.Add(1))%len(s.workers)]
	for i := range burst {
		t := &burst[i]
		t.follow = -1
		if i == 0 {
			t.follow = int32(len(burst) - 1)
		}
		select {
		case w.queue <- *t:
		case <-s.stop:
			s.inflight.Add(i - len(burst))
			return false
		}
	}
	return true
}
