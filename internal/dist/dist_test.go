package dist

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

func TestValidation(t *testing.T) {
	if _, err := New(8, tree.Cut{"0": true}); err == nil {
		t.Fatal("incomplete cut accepted")
	}
	cl, err := NewRootOnly(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Inject(-1); err == nil {
		t.Fatal("negative wire accepted")
	}
	if _, err := cl.Inject(8); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

func TestSequentialCounting(t *testing.T) {
	cl, err := NewRootOnly(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		out, err := cl.Inject(rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		if out != i%8 {
			t.Fatalf("token %d exited %d, want %d", i, out, i%8)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMergeErrors(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Split("0"); err == nil {
		t.Fatal("splitting a non-live path should fail")
	}
	if err := cl.Merge(""); err == nil {
		t.Fatal("merging a live path should fail")
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Split("0"); err == nil {
		t.Fatal("splitting a leaf should fail")
	}
	if err := cl.Merge("0"); err == nil {
		t.Fatal("merging a leaf path should fail")
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
}

// TestConcurrentTrafficNoReconfig: many concurrent injectors, quiescent
// step property.
func TestConcurrentTrafficNoReconfig(t *testing.T) {
	w := 16
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitUnderLoad: splitting while tokens flow never loses or
// misorders tokens (quiescent step property + conservation).
func TestSplitUnderLoad(t *testing.T) {
	w := 16
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	// Split everything down to leaves while traffic flows.
	rng := rand.New(rand.NewSource(42))
	for {
		var splittable []tree.Path
		for p := range cl.Cut() {
			c, err := tree.ComponentAt(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !c.IsLeaf() {
				splittable = append(splittable, p)
			}
		}
		if len(splittable) == 0 {
			break
		}
		if err := cl.Split(splittable[rng.Intn(len(splittable))]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Size(), len(tree.LeafCut(w)); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

// TestMergeUnderLoad: the freeze protocol merges a live network back to a
// single component without losing tokens.
func TestMergeUnderLoad(t *testing.T) {
	w := 16
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	// One recursive merge of the root does it all.
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestOscillationUnderLoad: repeated split/merge cycles with continuous
// traffic.
func TestOscillationUnderLoad(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for cycle := 0; cycle < 10; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("0"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("3"); err != nil {
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

// TestSequentialAcrossReconfig: with a single injector, the exact counter
// sequence survives split and merge (the strongest behavioral check the
// async engine admits).
func TestSequentialAcrossReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	token := 0
	step := func(k int) {
		for j := 0; j < k; j++ {
			out, err := cl.Inject(rng.Intn(w))
			if err != nil {
				t.Fatal(err)
			}
			if out != token%w {
				t.Fatalf("token %d exited %d, want %d", token, out, token%w)
			}
			token++
		}
	}
	step(10)
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Split("2"); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Merge("2"); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestFindLiveAscendAfterMerge: a token addressed to a merged-away child
// resolves upward through the entry-child inverse to the merged parent.
func TestFindLiveAscendAfterMerge(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	// "00" was an entry child of "0", which was an entry child of the root.
	cm, wire, err := cl.findLive(cl.topo.Load(), mustComp(t, w, "00"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.c.Path != "" {
		t.Fatalf("resolved to %v, want the root", cm.c)
	}
	if wire != 1 {
		t.Fatalf("wire = %d, want 1 (B8 input 1 feeds B4@0 input 1 feeds B2@00 input 1)", wire)
	}
	// A non-entry child has no upward wire mapping; such tokens can only
	// exist while the assembly drains, so after the merge this is an error.
	if _, _, err := cl.findLive(cl.topo.Load(), mustComp(t, w, "2"), 0); err == nil {
		t.Fatal("stranded non-entry delivery should error")
	}
}

// mustComp resolves the component at path p of T_w.
func mustComp(t *testing.T, w int, p tree.Path) tree.Component {
	t.Helper()
	c, err := tree.ComponentAt(w, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFindLiveDescendsAfterSplit: a token addressed to a split-away parent
// resolves downward through the input maps.
func TestFindLiveDescendsAfterSplit(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	cm, wire, err := cl.findLive(cl.topo.Load(), tree.MustRoot(w), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Input 5 of B8 feeds B4@1 input 1.
	if cm.c.Path != "1" || wire != 1 {
		t.Fatalf("resolved to %v wire %d, want B4@1 wire 1", cm.c, wire)
	}
}

// TestArriveOnDeadComponent: an arrive at a path that no live incarnation
// holds is answered with StatusDead so the sender re-resolves, and a
// control RPC there is an error.
func TestArriveOnDeadComponent(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	root := transport.Addr("c:")
	for _, tc := range []struct {
		kind string
		body any
	}{{kindArrive, wire.Arrive{Wire: 0}}, {kindGroupArrive, wire.GroupArrive{Wires: []int{0, 3}}}} {
		reply, err := cl.rc.Call(injector, root, tc.kind, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if res := reply.(wire.ArriveRes); res.Status != wire.StatusDead {
			t.Fatalf("%s: status = %v, want StatusDead", tc.kind, res.Status)
		}
	}
	for _, cm := range cl.topo.Load().comps {
		if cm.total != 0 {
			t.Fatalf("refused arrive recorded at %v: %+v", cm.c, cm)
		}
	}
	if _, err := cl.rc.Call("ctl", root, kindFreeze, nil); err == nil {
		t.Fatal("freeze at a path with no live incarnation succeeded")
	}
}

// TestRetryAcrossIncarnationsAtMostOnce: a retry of an arrive that one
// incarnation executed, reaching the path after a Split/Merge cycle has put
// a new incarnation there, is answered from the path's dedup table with
// the original reply and leaves the new incarnation's count untouched.
func TestRetryAcrossIncarnationsAtMostOnce(t *testing.T) {
	w := 8
	mem := transport.NewMem()
	mem.EnableDedup()
	cut, err := tree.UniformCut(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(w, cut, WithTransport(mem))
	if err != nil {
		t.Fatal(err)
	}
	req := transport.Request{ID: 1 << 40, From: injector, To: "c:0", Kind: kindArrive, Body: wire.Arrive{Wire: 1}}
	first, err := mem.Send(req, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res := first.(wire.ArriveRes); res.Status != wire.StatusProcessed {
		t.Fatalf("first delivery: %+v", res)
	}
	old := cl.topo.Load().comps["0"]
	if err := cl.Split("0"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge("0"); err != nil {
		t.Fatal(err)
	}
	cm := cl.topo.Load().comps["0"]
	if cm == old {
		t.Fatal("Split+Merge left the same incarnation at path 0")
	}
	total := cm.total
	again, err := mem.Send(req, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("retry reply %+v, want the original %+v", again, first)
	}
	if cm.total != total {
		t.Fatalf("retry moved the new incarnation's total %d -> %d", total, cm.total)
	}
}

// newTestComp binds a fresh root incarnation of cl in the given state.
func newTestComp(t *testing.T, cl *Cluster, state compState) *comp {
	t.Helper()
	cm := &comp{c: tree.MustRoot(cl.w), state: state, arrived: make([]uint64, cl.w)}
	if err := cl.bind(cm); err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestArriveOnFrozenComponentRefuses: an arrive RPC at a frozen component
// is refused with StatusFrozen and leaves no trace, so the frozen history
// is exactly the processed one; after a thaw the same incarnation routes
// the token.
func TestArriveOnFrozenComponentRefuses(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	cm := newTestComp(t, cl, stateFrozen)
	reply, err := cl.compRPC(cm, transport.Request{Kind: kindArrive, Body: wire.Arrive{Wire: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.ArriveRes); res.Status != wire.StatusFrozen {
		t.Fatalf("status = %v, want StatusFrozen", res.Status)
	}
	if cm.arrived[2] != 0 || cm.total != 0 {
		t.Fatalf("frozen component recorded a refused token: %+v", cm)
	}
	if _, err := cl.compRPC(cm, transport.Request{Kind: kindThaw}); err != nil {
		t.Fatal(err)
	}
	reply, err = cl.compRPC(cm, transport.Request{Kind: kindArrive, Body: wire.Arrive{Wire: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.ArriveRes); res.Status != wire.StatusProcessed || cm.arrived[2] != 1 {
		t.Fatalf("thawed component: reply %+v, arrived %v", res, cm.arrived)
	}
}

func TestClusterEffectiveWidthDepth(t *testing.T) {
	cl, err := New(16, tree.LeafCut(16))
	if err != nil {
		t.Fatal(err)
	}
	ew, err := cl.EffectiveWidth()
	if err != nil {
		t.Fatal(err)
	}
	ed, err := cl.EffectiveDepth()
	if err != nil {
		t.Fatal(err)
	}
	if ew != 8 || ed != 10 {
		t.Fatalf("width/depth = %d/%d, want 8/10", ew, ed)
	}
}

// TestInstrumentedUnderReconfig: the engine's histograms and token spans
// capture hop latency, refused-token waits and reconfiguration timing while
// traffic races a split and a merge.
func TestInstrumentedUnderReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl.Instrument(reg)
	tr := cl.Trace(1, 32)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	// Guarantee traffic regardless of goroutine scheduling.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		if _, err := cl.Inject(rng.Intn(w)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	tokens := int(cl.InCounts().Total())
	if got := snap.Histograms["dist.token.seconds"].Count; got != tokens {
		t.Fatalf("token latency samples = %d, want %d", got, tokens)
	}
	if snap.Histograms["dist.hop.seconds"].Count < tokens {
		t.Fatalf("hop samples %d < tokens %d", snap.Histograms["dist.hop.seconds"].Count, tokens)
	}
	if got := snap.Histograms["dist.split.seconds"].Count; got != 1 {
		t.Fatalf("split timing samples = %d, want 1", got)
	}
	// Merge("") recursively times each submerge; at least the top one fires.
	if snap.Histograms["dist.merge.seconds"].Count == 0 ||
		snap.Histograms["dist.merge.drain.seconds"].Count == 0 {
		t.Fatal("merge or drain timing missing")
	}
	if snap.Histograms["transport.call.seconds"].Count == 0 {
		t.Fatal("cluster did not instrument its reliability client")
	}

	if cl.Tracer() != tr {
		t.Fatal("Tracer() accessor mismatch")
	}
	// Every token plus the two reconfigurations (Split and Merge each open
	// a span at stride 1).
	if tr.Sampled() != uint64(tokens)+2 {
		t.Fatalf("sampled %d spans, want tokens+reconfigs (%d)", tr.Sampled(), tokens+2)
	}
	hops := 0
	for _, s := range tr.Spans() {
		if s.Name != "token" {
			continue
		}
		for _, e := range s.Events {
			switch e.Kind {
			case "hop":
				hops++
			case "frozen", "dead", "exit", "retry":
			default:
				t.Fatalf("unexpected event kind %q", e.Kind)
			}
		}
	}
	if hops == 0 {
		t.Fatal("no hop events recorded")
	}
}

// waitClosed fails the test unless ch is closed within a few seconds.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestSplitWaitsForShapedHistory: a MERGER whose input history is not
// shaped — a token still on its way to the bottom half — cannot split
// without breaking the step sequence. The split thaws the component,
// republishes the same topology, and commits only after the missing token
// has been processed.
func TestSplitWaitsForShapedHistory(t *testing.T) {
	cl, err := New(8, mustCut(t, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := cl.topo.Load().comps["2"] // MERGER[4]
	arrive := func(w int) {
		t.Helper()
		reply, err := cl.compRPC(m, transport.Request{Kind: kindArrive, Body: wire.Arrive{Wire: w}})
		if err != nil {
			t.Fatal(err)
		}
		if res := reply.(wire.ArriveRes); res.Status != wire.StatusProcessed {
			t.Fatalf("arrive on wire %d: status %v", w, res.Status)
		}
	}
	// History (3,2,0,1): the bottom half (0,1) is not a step sequence.
	for _, w := range []int{0, 0, 0, 1, 1, 3} {
		arrive(w)
	}
	before := cl.topo.Load()
	done := make(chan error, 1)
	go func() { done <- cl.Split("2") }()

	// The abandoned attempt republishes the same components.
	waitClosed(t, before.changed, "the abandoned split to republish")
	select {
	case err := <-done:
		t.Fatalf("split returned (%v) on an unshaped history", err)
	default:
	}
	if cl.topo.Load().comps["2"] != m {
		t.Fatal("split published children for an unshaped history")
	}
	m.mu.Lock()
	state := m.state
	m.mu.Unlock()
	if state != stateActive {
		t.Fatalf("abandoned split left the component in state %d, want active", state)
	}

	// The straggler lands on the bottom half: (3,2,1,1) is shaped.
	arrive(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("split did not commit on a shaped history")
	}
	comps := cl.topo.Load().comps
	if comps["2"] != nil {
		t.Fatal("split committed but the parent is still live")
	}
	totals, err := component.SplitTotalsFromInputs(m.c, []uint64{3, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, child := range m.c.Children() {
		if got := comps[child.Path].total; got != totals[i] {
			t.Fatalf("child %v total %d, want %d", child, got, totals[i])
		}
	}
}
