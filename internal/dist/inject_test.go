package dist

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// TestInjectMatchesOneTokenBatch: Inject is the routing loop run on a
// batch of one, so on fresh clusters Inject(x) and InjectBatch([]int{x})
// leave every token on the same output wire with the same counts.
func TestInjectMatchesOneTokenBatch(t *testing.T) {
	w := 16
	cut := mustCut(t, w, 2)
	for x := 0; x < w; x++ {
		one, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		out, err := one.Inject(x)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := batch.InjectBatch([]int{x})
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0] != out {
			t.Fatalf("input %d: Inject exits on %d, InjectBatch on %v", x, out, outs)
		}
		if a, b := one.OutCounts(), batch.OutCounts(); a.Total() != 1 || b.Total() != 1 || a[out] != 1 || b[out] != 1 {
			t.Fatalf("input %d: counts %v vs %v", x, a, b)
		}
	}
}

// TestBatchRecordsTokenAndRefusedHistograms: the batch entry point records
// what the single-token one does. Every token of an instrumented
// InjectBatch lands one dist.token.seconds sample at its exit, and a batch
// that a frozen component refuses records its wait for the topology to
// change in dist.refused.wait.seconds.
func TestBatchRecordsTokenAndRefusedHistograms(t *testing.T) {
	w := 8
	reg := obs.NewRegistry()
	tr := &refusalSignal{Transport: transport.NewMem(), refused: make(chan struct{}, 1)}
	cl, err := New(w, tree.RootCut(), WithTransport(tr), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 40)
	for i := range ins {
		ins[i] = i % w
	}
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Histograms["dist.token.seconds"].Count; got != len(ins) {
		t.Fatalf("token latency samples = %d, want %d", got, len(ins))
	}

	// Freeze the only component, so the whole batch is refused and the
	// loop blocks with every token parked. The snapshot the refused group
	// parks on was loaded before its arrive was sent, so once the refusal
	// is on its way back, republishing releases the batch.
	root := cl.topo.Load().comps[""]
	if _, err := cl.compRPC(root, transport.Request{Kind: kindFreeze}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.InjectBatch(ins)
		done <- err
	}()
	select {
	case <-tr.refused:
	case err := <-done:
		t.Fatalf("batch finished (%v) while its component was frozen", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the frozen component to refuse the batch")
	}
	if _, err := cl.compRPC(root, transport.Request{Kind: kindThaw}); err != nil {
		t.Fatal(err)
	}
	cl.publish(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["dist.refused.wait.seconds"].Count; got < 1 {
		t.Fatalf("refused-wait samples = %d, want at least 1", got)
	}
	if got := snap.Histograms["dist.token.seconds"].Count; got != 2*len(ins) {
		t.Fatalf("token latency samples = %d, want %d", got, 2*len(ins))
	}
}

// refusalSignal is a fabric that reports each refused arrive once its
// reply is on the way back to the caller.
type refusalSignal struct {
	transport.Transport
	refused chan struct{}
}

func (f *refusalSignal) Send(req transport.Request, timeout time.Duration) (any, error) {
	reply, err := f.Transport.Send(req, timeout)
	if res, ok := reply.(wire.ArriveRes); ok && res.Status == wire.StatusFrozen {
		select {
		case f.refused <- struct{}{}:
		default:
		}
	}
	return reply, err
}

// allocCluster is the allocation pins' network: the in-memory fabric and
// a level-2 cut of width 64, warmed so every path it routes on is bound.
func allocCluster(t *testing.T) (*Cluster, []int) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on otherwise allocation-free paths")
	}
	w := 64
	cl, err := New(w, mustCut(t, w, 2))
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 128)
	for i := range ins {
		ins[i] = (i * 37) % w
	}
	for i := 0; i < 4; i++ {
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	return cl, ins
}

// TestWarmInjectAllocs pins the single-token path's allocations per token:
// Inject runs the shared routing loop on a batch of one, and the loop's
// scratch is pooled, so a token pays only for its path walk and its RPCs.
func TestWarmInjectAllocs(t *testing.T) {
	cl, ins := allocCluster(t)
	perRun := testing.AllocsPerRun(20, func() {
		for _, in := range ins {
			if _, err := cl.Inject(in); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := perRun / float64(len(ins)); per > 15 {
		t.Fatalf("warm Inject: %.2f allocations per token, want <= 15", per)
	}
}

// TestWarmInjectBatchAllocs pins a warm 128-token InjectBatch: the round
// loop's positions, groups and parked list come from a pool, so what is
// left is the path walk, one body buffer per round and one boxed body per
// RPC.
func TestWarmInjectBatchAllocs(t *testing.T) {
	cl, ins := allocCluster(t)
	n := testing.AllocsPerRun(50, func() {
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1980 {
		t.Fatalf("warm InjectBatch of %d tokens: %.0f allocations, want <= 1980", len(ins), n)
	}
}
