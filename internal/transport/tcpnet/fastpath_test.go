package tcpnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frameFor builds one valid request frame the way Send does: pooled-style
// encoder with the FrameOverhead reserve, framed in place.
func frameFor(t *testing.T, mux uint64, to transport.Addr) []byte {
	t.Helper()
	enc := wire.NewEncoder(64)
	enc.Pad(wire.FrameOverhead)
	if err := wire.EncodeRequest(enc, mux, transport.Request{To: to, Kind: wire.KindTotal}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.FinishFrame(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// dialConn returns a live pooled conn from a to b.
func dialConn(t *testing.T, a, b *Net) *conn {
	t.Helper()
	c, err := a.pool(b.Addr()).conn()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWriteDeadlineCleared pins the deadline-hygiene bug: deadlines are
// connection state, so a bounded write must not leak its deadline into a
// later unbounded write (which previously inherited it — already expired —
// and failed). Both orders are exercised.
func TestWriteDeadlineCleared(t *testing.T) {
	a, b := newNet(t), newNet(t)
	c := dialConn(t, a, b)
	frame := frameFor(t, 1, "nowhere") // peer replies unreachable; no waiter, harmless

	// Unbounded first: must work on a fresh conn.
	if err := c.write(frame, 0); err != nil {
		t.Fatalf("unbounded write: %v", err)
	}
	// Bounded write arms a deadline...
	if err := c.write(frame, 20*time.Millisecond); err != nil {
		t.Fatalf("bounded write: %v", err)
	}
	// ...which expires while the conn is idle...
	time.Sleep(50 * time.Millisecond)
	// ...and must NOT apply to the next unbounded write.
	if err := c.write(frame, 0); err != nil {
		t.Fatalf("unbounded write after bounded inherited a stale deadline: %v", err)
	}
	select {
	case <-c.dead:
		t.Fatal("conn died from a stale deadline")
	default:
	}
}

// TestPendingReleasedOnDie races in-flight Sends against connection death:
// every pending caller must be released exactly once (promptly, with the
// retryable connection-lost error — not by its own distant timeout), the
// pending maps must end empty, and the fabric must recover for subsequent
// traffic. Run under -race this also checks the slot ownership protocol.
func TestPendingReleasedOnDie(t *testing.T) {
	a, b := newNet(t), newNet(t)
	if err := a.Route("slow", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before b's Close, unwedging handlers
	started := make(chan struct{}, 64)
	if err := b.Bind("slow", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-release
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			_, err := a.Send(transport.Request{ID: id, To: "slow", Kind: wire.KindTotal}, time.Minute)
			errs <- err
		}(uint64(i + 1))
	}
	// Wait until some requests are provably in handlers (so replies will
	// later be written to dead conns too — exercising that path), then
	// kill every outbound conn while the rest are mid-Send. The listener
	// closes first so no Send can escape onto a freshly dialed conn and
	// block on the wedged handlers.
	<-started
	_ = b.ln.Close()
	deadline := time.Now().Add(10 * time.Second)
	var killed []*conn
	for len(killed) < 2 && time.Now().Before(deadline) {
		a.poolMu.Lock()
		p := a.pools[b.Addr()]
		a.poolMu.Unlock()
		if p != nil {
			p.mu.Lock()
			killed = append(killed[:0], p.conns...)
			p.mu.Unlock()
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range killed {
		go c.die() // concurrent with Sends registering and reclaiming
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Sends did not return after conn death — a pending caller leaked")
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("Send succeeded although its conn was killed and the handler is wedged")
		}
	}
	for _, c := range killed {
		c.pmu.Lock()
		n := len(c.pending)
		c.pmu.Unlock()
		if n != 0 {
			t.Fatalf("dead conn holds %d pending entries", n)
		}
	}
	// The sender recovers: the same fabric, with its recycled slots and
	// pools, completes a fresh call to a healthy destination.
	c2 := newNet(t)
	if err := a.Route("fast", c2.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := c2.Bind("fast", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(transport.Request{ID: 99, To: "fast", Kind: wire.KindTotal}, 5*time.Second); err != nil {
		t.Fatalf("sender did not recover after conn death: %v", err)
	}
}

// TestHandlerPoolSpillover pins the worker-pool liveness guarantee: with
// every worker wedged in a slow handler and the queue full, a further
// request spills to a fresh goroutine and completes — slow handlers cannot
// wedge the demultiplexer.
func TestHandlerPoolSpillover(t *testing.T) {
	a := newNet(t)
	tune := defaultTuning()
	tune.handlers, tune.handlerQueue = 1, 1
	b, err := newTuned(Config{}, tune)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	if err := a.RouteDefault(b.Addr()); err != nil {
		t.Fatalf("RouteDefault: %v", err)
	}
	release := make(chan struct{})
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
	})
	var wedged atomic.Int32
	if err := b.Bind("slow", func(req transport.Request) (any, error) {
		wedged.Add(1)
		<-release
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("fast", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}

	// Three slow calls: one runs on the single worker, one parks in the
	// single queue slot, one spills. wedged==2 proves the queue is full
	// (the parked one is the only request not yet in a handler).
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if _, err := a.Send(transport.Request{ID: id, To: "slow", Kind: wire.KindTotal}, time.Minute); err != nil {
				t.Error(err)
			}
		}(uint64(i + 1))
	}
	deadline := time.Now().Add(10 * time.Second)
	for wedged.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if wedged.Load() < 2 {
		t.Fatalf("only %d handlers wedged; spillover did not spawn", wedged.Load())
	}

	// Worker wedged, queue full: this call must still complete via spill.
	reply, err := a.Send(transport.Request{ID: 10, To: "fast", Kind: wire.KindTotal}, 10*time.Second)
	if err != nil {
		t.Fatalf("call behind a wedged worker pool: %v", err)
	}
	if reply.(uint64) != 1 {
		t.Fatalf("reply %v, want 1", reply)
	}
	if s := b.WireStats().Spills; s < 2 {
		t.Fatalf("Spills = %d, want >= 2 (one slow spill + the fast call)", s)
	}

	close(release)
	released = true
	wg.Wait()
}

// TestUnsampledRequestPathAllocs pins the zero-alloc budget end to end: an
// uninstrumented, undeduped request/reply round trip — client encode,
// socket, server decode, dispatch, reply encode, socket, reply decode —
// stays within 2 allocations per op (target 0), using only the pools.
func TestUnsampledRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats the allocation optimizations this test pins")
	}
	a, b := newNet(t), newNet(t)
	if err := a.RouteDefault(b.Addr()); err != nil {
		t.Fatalf("RouteDefault: %v", err)
	}
	if err := b.Bind("t", func(req transport.Request) (any, error) { return uint64(7), nil }); err != nil {
		t.Fatal(err)
	}
	req := transport.Request{To: "t", Kind: wire.KindTotal}
	for i := 0; i < 100; i++ { // warm the conn pools and sync.Pools
		if _, err := a.Send(req, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		reply, err := a.Send(req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if reply.(uint64) != 7 {
			t.Fatalf("reply %v", reply)
		}
	})
	if avg > 2 {
		t.Fatalf("unsampled request path allocates %.2f/op, budget is 2", avg)
	}
	t.Logf("unsampled request path: %.2f allocs/op", avg)
}

// TestCoalescedWrites drives many concurrent senders through one
// destination and checks the write-coalescing accounting: every frame is
// counted, and frames never undercount writes (each write carries >= 1
// frame; under contention, more).
func TestCoalescedWrites(t *testing.T) {
	a, b := newNet(t), newNet(t)
	if err := a.RouteDefault(b.Addr()); err != nil {
		t.Fatalf("RouteDefault: %v", err)
	}
	if err := b.Bind("t", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}
	const callers, each = 16, 25
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := a.Send(transport.Request{ID: base + uint64(j), To: "t", Kind: wire.KindTotal}, 10*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(i * 1000))
	}
	wg.Wait()
	ws := a.WireStats()
	if ws.Frames != callers*each {
		t.Fatalf("sender counted %d frames, want %d", ws.Frames, callers*each)
	}
	if ws.Writes == 0 || ws.Frames < ws.Writes {
		t.Fatalf("accounting: %d frames across %d writes", ws.Frames, ws.Writes)
	}
	t.Logf("coalescing: %d frames in %d writes (%.2f frames/write)",
		ws.Frames, ws.Writes, float64(ws.Frames)/float64(ws.Writes))
}

// TestCoalescerSignals pins the observables the adapt controller consumes
// as its inputs: under N concurrent senders the tcpnet.flush.batch
// histogram must record the coalesced flush rounds (each carrying >= 1
// frame), the Frames >= Writes invariant must hold on both sides of the
// connection, and the WireStats.QueueDepth mirror of tcpnet.flush.queue
// must have settled back to zero once all traffic has drained.
func TestCoalescerSignals(t *testing.T) {
	a, b := newNet(t), newNet(t)
	reg := obs.NewRegistry()
	a.Instrument(reg)
	b.Instrument(reg)
	if err := a.RouteDefault(b.Addr()); err != nil {
		t.Fatalf("RouteDefault: %v", err)
	}
	// A handler slow enough that concurrent requests pile replies into the
	// corked flush path, guaranteeing coalesced rounds to observe.
	if err := b.Bind("t", func(req transport.Request) (any, error) {
		time.Sleep(50 * time.Microsecond)
		return uint64(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := a.Send(transport.Request{ID: base + uint64(j), To: "t", Kind: wire.KindTotal}, 10*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(i * 1000))
	}
	wg.Wait()

	for _, side := range []struct {
		name string
		ws   WireStats
	}{{"sender", a.WireStats()}, {"receiver", b.WireStats()}} {
		if side.ws.Writes == 0 || side.ws.Frames < side.ws.Writes {
			t.Fatalf("%s: %d frames across %d writes, want frames >= writes > 0",
				side.name, side.ws.Frames, side.ws.Writes)
		}
		if side.ws.QueueDepth != 0 {
			t.Fatalf("%s: queue depth %d after drain, want 0", side.name, side.ws.QueueDepth)
		}
	}

	h, ok := reg.Snapshot().Histograms["tcpnet.flush.batch"]
	if !ok || h.Count == 0 {
		t.Fatalf("tcpnet.flush.batch = %+v, want recorded flush rounds", h)
	}
	if h.Mean < 1 {
		t.Fatalf("tcpnet.flush.batch mean %.2f, want >= 1 frame per flush round", h.Mean)
	}
	// Every histogram entry is one coalesced flush round; the two sides
	// together cannot have flushed more rounds than they issued writes.
	total := a.WireStats().Writes + b.WireStats().Writes
	if uint64(h.Count) > total {
		t.Fatalf("%d flush rounds recorded but only %d writes issued", h.Count, total)
	}
	t.Logf("flush rounds: %d (mean %.2f frames, max %.0f), queue drained", h.Count, h.Mean, h.Max)
}
