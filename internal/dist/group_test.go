package dist

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/balancer"
	"repro/internal/cutnet"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

// mustCut builds a uniform cut or fails the test.
func mustCut(t *testing.T, w, level int) tree.Cut {
	t.Helper()
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// sequentialCounts is the batch oracles' reference: an independent engine,
// cutnet on the same cut, fed ins one Inject at a time. A balancer
// component's per-wire output depends only on how many tokens arrived on
// each input wire, so any grouping of the same tokens must match it.
func sequentialCounts(t *testing.T, w int, cut tree.Cut, ins []int) balancer.Seq {
	t.Helper()
	ref, err := cutnet.New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if _, err := ref.Inject(in); err != nil {
			t.Fatal(err)
		}
	}
	return ref.OutCounts()
}

// TestGroupBatchMatchesSequentialCounts is the group-routing exactness
// contract: for the same token multiset on the same cut, the group-routed
// InjectBatch produces the per-output-wire counts of the same tokens
// routed one at a time. A balancer component's per-wire output depends
// only on how many tokens arrived, never on their interleaving, so
// delivering a group in one message must be count-for-count the same.
func TestGroupBatchMatchesSequentialCounts(t *testing.T) {
	w := 8
	cuts := map[string]tree.Cut{
		"root":     tree.RootCut(),
		"leaf":     tree.LeafCut(w),
		"uniform1": mustCut(t, w, 1),
		"uniform2": mustCut(t, w, 2),
	}
	rng := rand.New(rand.NewSource(77))
	ins := make([]int, 500)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	for name, cut := range cuts {
		grp, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grp.InjectBatch(ins); err != nil {
			t.Fatalf("%s: group batch: %v", name, err)
		}
		g, s := grp.OutCounts(), sequentialCounts(t, w, cut, ins)
		for i := range g {
			if g[i] != s[i] {
				t.Fatalf("%s: output counts diverge: group %v vs sequential %v", name, g, s)
			}
		}
		if err := grp.CheckStep(); err != nil {
			t.Fatalf("%s: group batch: %v", name, err)
		}
	}
}

// TestGroupBatchOneRPCPerComponentVisit is the batching cost contract: on
// a root-only cut every token's traversal is one visit to one component,
// so a whole batch must cost exactly ONE group arrive RPC — not one per
// token. On a finer cut the exact count depends on routing, but it must
// stay strictly below one RPC per token per visit (the sequential cost).
func TestGroupBatchOneRPCPerComponentVisit(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 200)
	for i := range ins {
		ins[i] = i % w
	}
	_, before := cl.NetStats()
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after := cl.NetStats()
	if got := after.Sub(before).Calls; got != 1 {
		t.Fatalf("root-only batch of %d tokens issued %d RPCs, want exactly 1", len(ins), got)
	}

	// Finer cut: the batch fans out across components round by round, but
	// the RPC count is per component visit, so it stays far below the
	// sequential one-per-token-per-visit cost.
	cl2, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	_, before = cl2.NetStats()
	if _, err := cl2.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after = cl2.NetStats()
	groupCalls := after.Sub(before).Calls

	_, before = seq.NetStats()
	for _, in := range ins {
		if _, err := seq.Inject(in); err != nil {
			t.Fatal(err)
		}
	}
	_, after = seq.NetStats()
	seqCalls := after.Sub(before).Calls
	if groupCalls >= seqCalls {
		t.Fatalf("group batch issued %d RPCs, sequential %d: grouping saved nothing", groupCalls, seqCalls)
	}
	if groupCalls > seqCalls/4 {
		t.Fatalf("group batch issued %d RPCs vs sequential %d: expected at least 4x fewer on a leaf cut", groupCalls, seqCalls)
	}
}

// TestGroupArriveHandlerStates pins the group handler's three outcomes: a
// path with no live incarnation answers StatusDead and a frozen incarnation
// StatusFrozen, both refusing the WHOLE group without recording an
// arrival, and an active one routes the group in arrival order.
func TestGroupArriveHandlerStates(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	group := wire.GroupArrive{Wires: []int{0, 2, 2}}

	reply, err := cl.compRPC(nil, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.ArriveRes); res.Status != wire.StatusDead {
		t.Fatalf("no live incarnation: status = %v, want StatusDead", res.Status)
	}
	frozen := newTestComp(t, cl, stateFrozen)
	reply, err = cl.compRPC(frozen, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.ArriveRes); res.Status != wire.StatusFrozen {
		t.Fatalf("frozen: status = %v, want StatusFrozen", res.Status)
	}
	if frozen.arrived[0] != 0 || frozen.arrived[2] != 0 || frozen.total != 0 {
		t.Fatalf("frozen: refused group recorded: %+v", frozen)
	}

	active := newTestComp(t, cl, stateActive)
	active.total = 2
	reply, err = cl.compRPC(active, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	res := reply.(wire.ArriveRes)
	if res.Status != wire.StatusProcessed {
		t.Fatalf("active status = %v", res.Status)
	}
	// Round-robin from total 2: the group leaves on 2, 3, 0 in arrival
	// order, which the reply encodes as its first wire.
	if res.Out != 2 {
		t.Fatalf("active first out = %d, want 2", res.Out)
	}
	if active.total != 5 || active.arrived[0] != 1 || active.arrived[2] != 2 {
		t.Fatalf("active total = %d, arrived = %v", active.total, active.arrived)
	}

	// Malformed groups are errors, not silent misroutes.
	if _, err := cl.compRPC(active, transport.Request{Kind: kindGroupArrive,
		Body: wire.GroupArrive{}}); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := cl.compRPC(active, transport.Request{Kind: kindGroupArrive,
		Body: wire.GroupArrive{Wires: []int{7}}}); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

// TestGroupBatchDuringReconfig races group-routed batches against
// split/merge cycles: groups landing on frozen components are refused
// whole, park while their batchmates keep routing, and re-resolve once the
// topology changes; counting stays exact throughout.
func TestGroupBatchDuringReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = rng.Intn(w)
				}
				if _, err := cl.InjectBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for cycle := 0; cycle < 4; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("1"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// tcpCluster builds a cluster whose every message — token, group, control
// — crosses a real loopback socket, optionally through the fault
// injector on top.
func tcpCluster(t *testing.T, w int, cut tree.Cut, drop float64) (*Cluster, *tcpnet.Net) {
	t.Helper()
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	var tr transport.Transport = tn
	if drop > 0 {
		tr = transport.NewFaulty(tn, transport.FaultConfig{
			Seed:          17,
			DropRate:      drop,
			DupRate:       drop,
			LatencyBase:   5 * time.Microsecond,
			LatencyJitter: 50 * time.Microsecond,
		})
	}
	cl, err := New(w, cut, WithTransport(tr), WithRetry(transport.RetryConfig{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 12,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return cl, tn
}

// TestCountingOverTCP is the fabric-substitution contract: the dist engine
// run unchanged over tcpnet — single tokens, group batches, and a
// split/merge cycle against live traffic — keeps counting exact, and the
// bytes actually cross the socket.
func TestCountingOverTCP(t *testing.T) {
	w := 8
	cl, tn := tcpCluster(t, w, tree.RootCut(), 0)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 20)
			for round := 0; round < 5; round++ {
				for i := range batch {
					batch[i] = rng.Intn(w)
				}
				if _, err := cl.InjectBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if ws := tn.WireStats(); ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Fatalf("no bytes crossed the socket: %+v", ws)
	}
}

// TestNewEnablesDedup pins the at-most-once wiring: New must switch on
// receiver-side dedup when the fabric can time out a delivered call
// (transport.Redeliverer), because the retry client re-sends past its
// deadline and a re-executed arrive handler double-counts the token — a
// conservation break that wedges the next merge's drain phase forever.
// (Observed as a rare TestCountingOverTCP hang under -race, where handler
// latency can exceed the 25ms retry deadline.) The in-memory fabric is
// deliberately exempt: its Send never times out, so retries cannot occur.
func TestNewEnablesDedup(t *testing.T) {
	w := 8
	cl, tn := tcpCluster(t, w, tree.RootCut(), 0)
	if _, err := cl.Inject(3); err != nil {
		t.Fatal(err)
	}
	if tn.DedupEntries() == 0 {
		t.Fatal("New left receiver-side dedup off: retried calls would re-execute handlers")
	}
}

// TestCountingUnderFaultyTCP is the E24 exactness property with tcpnet
// substituted for the in-memory switch: loss, duplication and jitter on
// top of a real socket, retries and receiver-side dedup underneath, and
// the count must still be exact after a reconfiguration cycle under load.
// A batch costs about one group RPC per component visit, so the rounds
// are what give the 3% fault rates enough messages to drop and duplicate
// on every run.
func TestCountingUnderFaultyTCP(t *testing.T) {
	w := 8
	cl, _ := tcpCluster(t, w, tree.RootCut(), 0.03)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 10)
			for round := 0; round < 40; round++ {
				for i := range batch {
					batch[i] = rng.Intn(w)
				}
				if _, err := cl.InjectBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	st, cs := cl.NetStats()
	if st.Dropped == 0 {
		t.Fatalf("faults not exercised: %+v", st)
	}
	if cs.Failures != 0 {
		t.Fatalf("client stats %+v: retries exhausted", cs)
	}
	if st.DedupHits == 0 {
		t.Fatal("no dedup hits over faulty TCP; at-most-once untested")
	}
}
