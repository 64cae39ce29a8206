package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/telemetry"
)

// sendBurst writes reqs to nc in one write and reads back one response per
// request, in arrival order.
func sendBurst(t *testing.T, nc net.Conn, reqs []Request) []Response {
	t.Helper()
	var buf []byte
	for _, r := range reqs {
		buf = AppendRequest(buf, r)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	out := make([]Response, len(reqs))
	frame := make([]byte, RespFrameLen)
	for i := range out {
		if _, err := io.ReadFull(nc, frame); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = resp
	}
	return out
}

func getBurst(first uint32, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpGet, ID: first + uint32(i), Key: uint64(i)}
	}
	return reqs
}

// TestBurstIsOneBatch: Batch same-kind, disjoint-key Gets sent in one
// client write are dispatched to one worker as one burst and run as one
// transaction, every time.
func TestBurstIsOneBatch(t *testing.T) {
	const batch = 8
	s := startServer(t, Config{Workers: 4, Batch: batch, Unguided: true})
	ctl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	for round := 0; round < 20; round++ {
		b0, err := ctl.Info(InfoBatches)
		if err != nil {
			t.Fatal(err)
		}
		o0, err := ctl.Info(InfoBatchedOps)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sendBurst(t, nc, getBurst(uint32(round*batch+1), batch)) {
			if r.Status != StatusNotFound {
				t.Fatalf("round %d response %d: status %d", round, i, r.Status)
			}
		}
		b1, _ := ctl.Info(InfoBatches)
		o1, _ := ctl.Info(InfoBatchedOps)
		if b1-b0 != 1 || o1-o0 != batch {
			t.Fatalf("round %d: burst of %d ran as %d batches of %d ops, want 1 of %d",
				round, batch, b1-b0, o1-o0, batch)
		}
	}
}

// TestBurstSpreadsOverWorkers: a pipelined burst deeper than Batch is cut
// into Batch-sized dispatches that go to different workers, so one deep
// client window still uses the pool.
func TestBurstSpreadsOverWorkers(t *testing.T) {
	const batch = 8
	s := startServer(t, Config{Workers: 4, Batch: batch, Unguided: true, TraceSampleEvery: 1})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for i, r := range sendBurst(t, nc, getBurst(1, 4*batch)) {
		if r.Status != StatusNotFound {
			t.Fatalf("response %d: id %d status %d", i, r.ID, r.Status)
		}
	}
	workers := map[int]int{}
	for _, sp := range s.Observatory().Snapshot().Sampled {
		workers[sp.Worker] += sp.Ops
	}
	if len(workers) < 2 {
		t.Fatalf("a %d-frame burst ran on workers %v, want at least 2", 4*batch, workers)
	}
}

// TestShutdownFlushesAdmittedResponses: every response admitted before
// Shutdown reaches the client before its connection closes, even though
// the client reads nothing until the drain has begun. (The writer's
// flush-then-close order itself is pinned by TestWriterFlushesBeforeClose.)
func TestShutdownFlushesAdmittedResponses(t *testing.T) {
	s := New(Config{Workers: 2, Batch: 8, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ctl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 2048
	var buf []byte
	for i := 0; i < n; i++ {
		buf = AppendRequest(buf, Request{Op: OpAdd, ID: uint32(i + 1), Key: uint64(i), Arg: 1})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Wait until every Add has committed: each is then admitted and its
	// response queued.
	deadline := time.Now().Add(writeTimeout / 2)
	for {
		ops, err := ctl.Info(InfoBatchedOps)
		if err != nil {
			t.Fatal(err)
		}
		if ops == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d adds committed", ops, n)
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	seen := make([]bool, n+1)
	frame := make([]byte, RespFrameLen)
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(nc, frame); err != nil {
			t.Fatalf("after %d of %d responses: %v", i, n, err)
		}
		resp, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK || resp.ID == 0 || resp.ID > n || seen[resp.ID] {
			t.Fatalf("response %d: id %d status %d", i, resp.ID, resp.Status)
		}
		seen[resp.ID] = true
	}
	if _, err := io.ReadFull(nc, frame[:1]); err != io.EOF {
		t.Fatalf("after every response: read %v, want EOF (connection closed)", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// peerRun issues synchronous Adds on the peer's own key until more
// reports false, and returns each one's start time and round trip.
func peerRun(t *testing.T, cl *Client, key uint64, more func(n int) bool) (at []time.Time, rtt []time.Duration) {
	t.Helper()
	for more(len(rtt)) {
		t0 := time.Now()
		if _, err := cl.Add(key, 1); err != nil {
			t.Fatal(err)
		}
		at, rtt = append(at, t0), append(rtt, time.Since(t0))
	}
	return at, rtt
}

// p99Since is the 99th-percentile round trip of the operations that
// started at or after from, and how many there were.
func p99Since(at []time.Time, rtt []time.Duration, from time.Time) (time.Duration, int) {
	var lat []time.Duration
	for i := range rtt {
		if !at[i].Before(from) {
			lat = append(lat, rtt[i])
		}
	}
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100], len(lat)
}

// stacksInWrite dumps the goroutine profile and returns, by the value of
// their gstm pprof label, the stacks that sit in a socket write.
func stacksInWrite() map[string][]string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	found := map[string][]string{}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "net.(*conn).Write") {
			continue
		}
		for _, role := range []string{"server-worker", "server-writer"} {
			if strings.Contains(rec, `"gstm":"`+role+`"`) {
				found[role] = append(found[role], rec)
			}
		}
	}
	return found
}

// TestSlowReaderEvicted: a pipelining client that never reads its
// responses is evicted by its writer's deadline — counted on /metrics —
// while a well-behaved peer on the same two-worker server keeps its p99
// within 2x of its solo run, and no worker is ever caught writing to a
// socket.
//
// Until the socket buffers toward the slow reader fill, it is just a
// client saturating the server (the server cannot yet tell that it does
// not read), and the peer queues behind its requests. The peer's p99 is
// therefore taken from the moment the slow reader's writer is seen stuck
// in its write until the eviction: the stretch in which a worker that
// wrote synchronously would have frozen the pool.
func TestSlowReaderEvicted(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Batch: 8, Unguided: true})
	addr := s.Addr().String()
	metrics := httptest.NewServer(telemetry.Handler(telemetry.Gather))
	defer metrics.Close()
	evictions := func() string {
		resp, err := http.Get(metrics.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		const series = `gstm_conn_evictions_total{component="server"} `
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, series) {
				return strings.TrimPrefix(line, series)
			}
		}
		t.Fatal("/metrics has no gstm_conn_evictions_total series")
		return ""
	}
	if got := evictions(); got != "0" {
		t.Fatalf("evictions before the slow reader = %s, want 0", got)
	}

	peer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	const peerOps = 4000
	upTo := func(n int) func(int) bool { return func(i int) bool { return i < n } }
	peerRun(t, peer, 1, upTo(peerOps/4)) // warm up
	at, rtt := peerRun(t, peer, 1, upTo(peerOps))
	solo, _ := p99Since(at, rtt, time.Time{})

	// The slow reader pipelines Gets as fast as the server takes them and
	// never reads a response, until the server closes its connection.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	var evicted atomic.Bool
	go func() {
		buf := make([]byte, 0, 64*ReqFrameLen)
		for id := uint32(1); ; {
			buf = buf[:0]
			for i := 0; i < 64; i++ {
				buf = AppendRequest(buf, Request{Op: OpGet, ID: id, Key: uint64(id % 1024)})
				id++
			}
			if _, err := slow.Write(buf); err != nil {
				evicted.Store(true)
				return
			}
		}
	}()

	// Probe the goroutine profile while the slow reader lives: note when
	// its writer is first seen stuck in the write, and fail if a worker is
	// ever seen in one.
	stopProbe := make(chan struct{})
	type probe struct {
		workers []string
		stuck   time.Time
	}
	probed := make(chan probe, 1)
	go func() {
		var p probe
		defer func() { probed <- p }()
		for {
			select {
			case <-stopProbe:
				return
			case <-time.After(250 * time.Millisecond):
			}
			stacks := stacksInWrite()
			if p.stuck.IsZero() && len(stacks["server-writer"]) > 0 {
				p.stuck = time.Now()
			}
			if p.workers = stacks["server-worker"]; len(p.workers) > 0 {
				return
			}
		}
	}()

	at, rtt = peerRun(t, peer, 1, func(int) bool {
		if time.Since(start) > 3*writeTimeout {
			t.Fatal("non-reading client was never evicted")
		}
		return !evicted.Load()
	})
	close(stopProbe)
	p := <-probed
	if len(p.workers) > 0 {
		t.Fatalf("a worker sits in a socket write:\n%s", p.workers[0])
	}
	if p.stuck.IsZero() {
		t.Fatal("the slow reader's writer was never seen stuck in its write")
	}
	if got := evictions(); got != "1" {
		t.Fatalf("gstm_conn_evictions_total = %s, want 1", got)
	}
	shared, n := p99Since(at, rtt, p.stuck)
	filling, _ := p99Since(at, rtt, start)
	t.Logf("peer p99 solo %v; beside the stuck slow reader %v over %d ops (%v whole run); "+
		"writer stuck after %v, evicted after %v", solo, shared, n, filling, p.stuck.Sub(start), time.Since(start))
	if n < peerOps/4 {
		t.Fatalf("only %d peer ops ran while the slow reader was stuck", n)
	}
	if shared > 2*solo {
		t.Fatalf("peer p99 beside a non-reading client = %v, more than 2x its solo %v", shared, solo)
	}
}

// pipedConn is a connection over a synchronous in-memory pipe, so every
// frame queued behind a write stays in the outbound buffer until the test
// reads; its writer runs until the returned channel closes.
func pipedConn(t *testing.T, maxUnsent int) (*Server, *conn, net.Conn, chan struct{}) {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	s := &Server{conns: map[*conn]struct{}{}, stop: make(chan struct{})}
	c := &conn{nc: srvEnd, stop: s.stop, maxUnsent: maxUnsent,
		kick: make(chan struct{}, 1), room: make(chan struct{}, 1)}
	s.conns[c] = struct{}{}
	done := make(chan struct{})
	go func() { defer close(done); s.writeLoop(c) }()
	t.Cleanup(func() { c.close(); cliEnd.Close(); <-done })
	return s, c, cliEnd, done
}

func respFrame(id uint32) []byte { return AppendResponse(nil, Response{ID: id, Value: uint64(id)}) }

func readFrameID(t *testing.T, r io.Reader) uint32 {
	t.Helper()
	frame := make([]byte, RespFrameLen)
	if _, err := io.ReadFull(r, frame); err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// TestWriterFlushesBeforeClose: frames queued behind a blocked write are
// all delivered, in order, before close lets the writer shut the socket.
func TestWriterFlushesBeforeClose(t *testing.T) {
	const n = 100
	s, c, cli, done := pipedConn(t, n)
	if !c.reserve(n) {
		t.Fatal("reserve on an idle connection failed")
	}
	// Once the client has read a byte of frame 1, the writer is inside
	// the write that carries it, so frames 2..n queue behind it.
	c.writeFrames(respFrame(1))
	var first [1]byte
	if _, err := io.ReadFull(cli, first[:]); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		c.writeFrames(respFrame(uint32(i)))
	}
	c.close()
	if id := readFrameID(t, io.MultiReader(bytes.NewReader(first[:]), cli)); id != 1 {
		t.Fatalf("frame 1 carries id %d", id)
	}
	for i := 2; i <= n; i++ {
		if id := readFrameID(t, cli); id != uint32(i) {
			t.Fatalf("frame %d carries id %d", i, id)
		}
	}
	if _, err := cli.Read(first[:]); err != io.EOF {
		t.Fatalf("after the flush: read %v, want EOF", err)
	}
	<-done
	if s.evictions.Load() != 0 {
		t.Fatal("a clean close counted as an eviction")
	}
}

// TestReserveWaitsForTheWriter: once a connection owes maxUnsent
// responses, the reader's next reservation waits until the writer has
// written some — the client that does not read is not read from — and a
// connection with nothing unsent always admits a burst, however large.
func TestReserveWaitsForTheWriter(t *testing.T) {
	const max = 8
	_, c, cli, _ := pipedConn(t, max)
	if !c.reserve(max) {
		t.Fatal("reserve on an idle connection failed")
	}
	for i := 1; i <= max; i++ {
		c.writeFrames(respFrame(uint32(i)))
	}
	reserved := make(chan bool, 1)
	go func() { reserved <- c.reserve(1) }()
	select {
	case <-reserved:
		t.Fatal("reserve succeeded with the connection's room all unsent")
	case <-time.After(20 * time.Millisecond):
	}
	for i := 1; i <= max; i++ {
		if id := readFrameID(t, cli); id != uint32(i) {
			t.Fatalf("frame %d carries id %d", i, id)
		}
	}
	select {
	case ok := <-reserved:
		if !ok {
			t.Fatal("reserve failed on a live connection")
		}
	case <-time.After(writeTimeout):
		t.Fatal("reserve still waiting after the client read everything")
	}
	c.writeFrames(respFrame(max + 1))
	if id := readFrameID(t, cli); id != max+1 {
		t.Fatalf("frame %d carries id %d", max+1, id)
	}
	if !c.reserve(4 * max) {
		t.Fatal("a burst larger than the bound was refused on an idle connection")
	}
}
