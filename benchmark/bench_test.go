package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gstm/internal/server"
	"gstm/internal/xrand"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    uint64
		want float64
		got  float64
	}{
		{n: 100000, want: 99, got: 99},
		{n: 1000, want: 99, got: 99},
		{n: 500, want: 99, got: 98},
		{n: 20, want: 99, got: 50},
		{n: 20, want: 50, got: 50},
	}
	for _, c := range cases {
		p, err := tailPercentile(c.n, c.want)
		if err != nil || math.Abs(p-c.got) > 1e-9 {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v", c.n, c.want, p, err, c.got)
		}
	}
	if _, err := tailPercentile(10, 50); err == nil {
		t.Error("10 samples: want an error, none can have 10 beyond")
	}
	// Whatever n, the reported rank leaves at least minBeyond samples
	// above it, and the next rank up would not. Values below 2^(histSub+1)
	// sit in one-wide buckets, so the histogram's rank is exact there.
	for n := uint64(11); n < 1<<(histSub+1); n++ {
		p, err := tailPercentile(n, 99.9)
		if err != nil {
			t.Fatal(err)
		}
		var h latHist
		for v := uint64(0); v < n; v++ {
			h.add(v) // exact buckets: the quantile is the rank itself
		}
		r := uint64(h.quantile(p)) // 0-based rank: bucket low + interpolation < 1
		if beyond := n - 1 - r; beyond < minBeyond {
			t.Fatalf("n=%d p=%v: rank %d leaves %d beyond", n, p, r, beyond)
		} else if p < 99.9 && beyond != minBeyond {
			t.Fatalf("n=%d p=%v: rank %d leaves %d beyond, want exactly %d", n, p, r, beyond, minBeyond)
		}
	}
}

func TestHistQuantileMatchesNearestRank(t *testing.T) {
	r := xrand.New(7)
	var h latHist
	vals := make([]uint64, 50000)
	for i := range vals {
		vals[i] = 20000 + uint64(r.Intn(2000000)) // 20µs..2ms
		h.add(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{1, 50, 90, 99, 99.9} {
		exact := float64(vals[int(math.Ceil(p/100*float64(len(vals))))-1])
		got := h.quantile(p)
		if math.Abs(got-exact)/exact > 1.0/(1<<histSub) {
			t.Errorf("p%v = %v, exact nearest rank %v", p, got, exact)
		}
	}
}

// fakeServer answers each connection's first okN requests StatusOK, the
// next budgetN StatusBudget, and then closes the connection with requests
// still outstanding. With badID set it answers the first request with an
// ID nobody sent.
type fakeServer struct {
	ln            net.Listener
	okN, budgetN  int
	badID         bool
	wg            sync.WaitGroup
	mu            sync.Mutex
	budgetReplies int
}

func startFake(t *testing.T, f *fakeServer) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.ln = ln
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() { defer f.wg.Done(); f.serve(nc) }()
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); f.wg.Wait() })
	return ln.Addr().String()
}

func (f *fakeServer) serve(nc net.Conn) {
	defer nc.Close()
	var frame [server.ReqFrameLen]byte
	for i := 0; i < f.okN+f.budgetN; i++ {
		if _, err := io.ReadFull(nc, frame[:]); err != nil {
			return
		}
		req, err := server.DecodeRequest(frame[4:])
		if err != nil {
			return
		}
		resp := server.Response{ID: req.ID}
		if f.badID && i == 0 {
			resp.ID ^= 1 << 20
		}
		if i >= f.okN {
			resp.Status = server.StatusBudget
			f.mu.Lock()
			f.budgetReplies++
			f.mu.Unlock()
		}
		if _, err := nc.Write(server.AppendResponse(nil, resp)); err != nil {
			return
		}
	}
	// Let the client's refills arrive, so requests are outstanding when
	// the connection drops.
	_ = nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, _ = io.Copy(io.Discard, nc)
}

func getLoad(addr string) loadSpec {
	return loadSpec{
		addr: addr, seed: 1, stream: streamMeasure,
		segs: []segment{{end: time.Hour}},
		next: func(r *xrand.Rand) (benchOp, bool) {
			return benchOp{op: server.OpGet, key: uint64(r.Intn(10))}, true
		},
		check: func(*acct, benchOp, server.Status, uint64) {},
	}
}

func TestGeneratorAccounting(t *testing.T) {
	f := &fakeServer{okN: 40, budgetN: 5}
	addr := startFake(t, f)
	res, err := runLoad(getLoad(addr), func(time.Time) { time.Sleep(time.Second) })
	if err == nil {
		t.Fatal("want an error: the server dropped connections with requests outstanding")
	}
	if res.sent != res.answered+res.failed {
		t.Fatalf("attempted %d != answered %d + failed %d", res.sent, res.answered, res.failed)
	}
	if want := uint64(numConns * f.okN); res.answered != want {
		t.Errorf("answered %d, want %d", res.answered, want)
	}
	unanswered := res.failed - uint64(f.budgetReplies)
	if f.budgetReplies != numConns*f.budgetN || unanswered == 0 {
		t.Errorf("failed %d = %d budget + %d unanswered; want %d budget and some unanswered",
			res.failed, f.budgetReplies, unanswered, numConns*f.budgetN)
	}
	var done uint64
	for _, s := range res.segs {
		done += s.done
	}
	if done != res.answered+uint64(f.budgetReplies) {
		t.Errorf("latency recorded for %d responses, want %d", done, res.answered+uint64(f.budgetReplies))
	}
}

func TestIDCheckCatchesUnknownResponse(t *testing.T) {
	addr := startFake(t, &fakeServer{okN: 10, badID: true})
	res, err := runLoad(getLoad(addr), func(time.Time) { time.Sleep(200 * time.Millisecond) })
	if err == nil || res.idMismatches == 0 {
		t.Fatalf("want an id mismatch, got %d (err %v)", res.idMismatches, err)
	}
	if checkIDs(res.idMismatches) == nil {
		t.Error("checkIDs passed with mismatches")
	}
	if checkIDs(0) != nil {
		t.Error("checkIDs failed without mismatches")
	}
}

func TestBalanceCheck(t *testing.T) {
	if err := checkBalance(100, 100, 0); err != nil {
		t.Errorf("exact balance: %v", err)
	}
	if err := checkBalance(103, 100, 5); err != nil {
		t.Errorf("three in-doubt adds applied: %v", err)
	}
	if checkBalance(99, 100, 0) == nil {
		t.Error("one dropped acked add passed")
	}
	if checkBalance(106, 100, 5) == nil {
		t.Error("a phantom add passed")
	}
}

func TestValueCheck(t *testing.T) {
	var a acct
	get := benchOp{op: server.OpGet, key: 42}
	checkKeyEncoded(&a, get, server.StatusOK, keyEncoded(42, 0xdead))
	if err := checkValues(a); err != nil {
		t.Fatalf("own value: %v", err)
	}
	checkKeyEncoded(&a, get, server.StatusOK, keyEncoded(43, 0xdead))
	if checkValues(a) == nil {
		t.Error("a neighbor's value passed")
	}
	a = acct{}
	checkKeyEncoded(&a, get, server.StatusNotFound, 0)
	if checkValues(a) == nil {
		t.Error("a missing preloaded key passed")
	}
}

// newTestBench sets up a workload's server as a run would.
func newTestBench(t *testing.T, name string) *bench {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 3, outDir: t.TempDir()}
	t.Cleanup(func() {
		if err := b.tearDown(); err != nil {
			t.Error(err)
		}
	})
	if _, err := b.setUp(0); err != nil {
		t.Fatal(err)
	}
	return b
}

func (b *bench) runFor(t *testing.T, d time.Duration) {
	t.Helper()
	res, err := b.measure([]segment{{end: d}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed > 0 {
		t.Fatalf("%d of %d operations failed", res.failed, res.sent)
	}
}

func TestDurableCheckCatchesDroppedAdd(t *testing.T) {
	b := newTestBench(t, "durable-transfer")
	b.runFor(t, 300*time.Millisecond)
	if err := b.verify(); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	if b.acct.ackedAdds == 0 {
		t.Fatal("no adds acknowledged")
	}
	// Undo one acknowledged Add behind the accounting's back: the server
	// now looks as if it lost an acked write.
	cl, err := server.Dial(b.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(7, -1); err != nil {
		t.Fatal(err)
	}
	if err := b.verify(); err == nil || !strings.Contains(err.Error(), "balance") {
		t.Fatalf("dropped add: want a balance failure, got %v", err)
	}
}

func TestGuidedCheckCatchesUnguidedShard(t *testing.T) {
	b := newTestBench(t, "hot-guided")
	b.runFor(t, 100*time.Millisecond)
	if err := b.verify(); err != nil {
		t.Fatalf("guided run: %v", err)
	}
	cl, err := server.Dial(b.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ctl(server.CtlModeUnguided, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.verify(); err == nil || !strings.Contains(err.Error(), "guided") {
		t.Fatalf("unguided shard: want a guided failure, got %v", err)
	}
}

func TestReadCheckCatchesForeignValue(t *testing.T) {
	b := newTestBench(t, "read-mostly")
	b.runFor(t, 100*time.Millisecond)
	if err := b.verify(); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	// Store key 5's value under a sixty-fourth of the keys: the next
	// stretch of Gets reads values that do not encode their keys.
	cl, err := server.Dial(b.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := uint64(0); k < readKeys; k += 64 {
		if _, err := cl.Put(k, keyEncoded(5, 0)); err != nil {
			t.Fatal(err)
		}
	}
	b.runFor(t, 200*time.Millisecond)
	if err := b.verify(); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("foreign values: want a values failure, got %v", err)
	}
}

// TestResultsMatchBenchmarkJSON runs hot-guided briefly in both modes and
// checks that each result carries exactly the metrics, with the units,
// that BENCHMARK.json declares for that mode.
func TestResultsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	b := newTestBench(t, "hot-guided")
	for _, mode := range []struct {
		name string
		want []struct{ Name, Unit string }
		run  func() (result, error)
	}{
		{"untraced", spec.EndToEnd, func() (result, error) { return b.runUntraced(time.Second, setupTimes{total: 1}) }},
		{"traced", spec.PerLayer, func() (result, error) {
			return b.runTraced(time.Second, setupTimes{}, options{seed: 1, out: b.outDir})
		}},
	} {
		res, err := mode.run()
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode.name, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", mode.name, m.Name, got, m.Unit)
			}
		}
	}
}
