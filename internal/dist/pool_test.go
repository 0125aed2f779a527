package dist

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/tree"
)

// TestInjectBatchCounts checks batched injection issues exactly the same
// step sequence as token-at-a-time injection and conserves every token.
func TestInjectBatchCounts(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ins := make([]int, 200)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	outs, err := cl.InjectBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ins) {
		t.Fatalf("batch returned %d outputs for %d tokens", len(outs), len(ins))
	}
	for i, o := range outs {
		if o < 0 || o >= w {
			t.Fatalf("token %d exited on wire %d, width %d", i, o, w)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range cl.OutCounts() {
		total += n
	}
	if total != int64(len(ins)) {
		t.Fatalf("network emitted %d tokens, injected %d", total, len(ins))
	}
	if _, err := cl.InjectBatch(nil); err != nil {
		t.Fatal("empty batch must be a no-op, got", err)
	}
}

// TestInjectBatchDuringReconfig races batched and single-token injection
// against split/merge cycles: tokens refused by frozen components must
// re-resolve and finish exactly once, so the network emits every token
// the clients injected, and the quiescent network must still satisfy the
// step property.
func TestInjectBatchDuringReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var injected sync.Map // goroutine -> count
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var count uint64
			defer func() { injected.Store(g, count) }()
			batch := make([]int, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					for i := range batch {
						batch[i] = rng.Intn(w)
					}
					outs, err := cl.InjectBatch(batch)
					if err != nil {
						t.Error(err)
						return
					}
					count += uint64(len(outs))
				} else {
					if _, err := cl.Inject(rng.Intn(w)); err != nil {
						t.Error(err)
						return
					}
					count++
				}
			}
		}()
	}
	for cycle := 0; cycle < 6; cycle++ {
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
	var want int64
	injected.Range(func(_, v any) bool {
		want += int64(v.(uint64))
		return true
	})
	var got int64
	for _, n := range cl.OutCounts() {
		got += n
	}
	if got != want {
		t.Fatalf("network emitted %d tokens, clients injected %d", got, want)
	}
}

// bindCounter is a fabric that counts the addresses bound on it.
type bindCounter struct {
	transport.Transport
	binds int
}

func (b *bindCounter) Bind(a transport.Addr, h transport.Handler) error {
	b.binds++
	return b.Transport.Bind(a, h)
}

// TestInjectBindsNoEndpoints checks that tokens travel without transport
// endpoints of their own: only component incarnations bind addresses, and
// every injection path's replies return on the call itself.
func TestInjectBindsNoEndpoints(t *testing.T) {
	w := 4
	tr := &bindCounter{Transport: transport.NewMem()}
	cl, err := New(w, tree.LeafCut(w), WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	comps := tr.binds
	if comps != cl.Size() {
		t.Fatalf("construction bound %d addresses for %d components", comps, cl.Size())
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Inject(i % w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.InjectBatch([]int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, in := range []int{3, 2, 1, 0} {
		if _, err := cl.Inject(in); err != nil {
			t.Fatal(err)
		}
	}
	if tr.binds != comps {
		t.Fatalf("injection bound %d addresses, want none", tr.binds-comps)
	}
}

// TestReconfigRebindsNoEndpoints: a component is addressed by its path, so
// once a Split/Merge cycle has bound the children's paths, repeating the
// cycle binds nothing more, however many incarnations it creates.
func TestReconfigRebindsNoEndpoints(t *testing.T) {
	w := 16
	tr := &bindCounter{Transport: transport.NewMem()}
	cut, err := tree.UniformCut(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(w, cut, WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 4*w)
	for i := range ins {
		ins[i] = i % w
	}
	afterFirst := 0
	for cycle := 0; cycle < 20; cycle++ {
		for _, step := range []func() error{
			func() error { _, err := cl.InjectBatch(ins); return err },
			func() error { return cl.Split("0") },
			func() error { _, err := cl.InjectBatch(ins); return err },
			func() error { return cl.Merge("0") },
		} {
			if err := step(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		if cycle == 0 {
			afterFirst = tr.binds
		} else if tr.binds != afterFirst {
			t.Fatalf("cycle %d bound %d more endpoints", cycle, tr.binds-afterFirst)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectBatchValidatesUpfront: a bad wire anywhere in the batch rejects
// the whole batch before any token is injected or counted — the seq range
// and injected counters are only touched by all-valid batches.
func TestInjectBatchValidatesUpfront(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InjectBatch([]int{0, 1, w, 2}); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
	if _, err := cl.InjectBatch([]int{-1}); err == nil {
		t.Fatal("negative wire accepted")
	}
	var total int64
	for _, n := range cl.OutCounts() {
		total += n
	}
	if total != 0 {
		t.Fatalf("rejected batches emitted %d tokens", total)
	}
	for in := range cl.injected {
		if c := cl.injected[in].Load(); c != 0 {
			t.Fatalf("rejected batch counted %d tokens on wire %d", c, in)
		}
	}
}
