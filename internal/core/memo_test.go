package core

import (
	"slices"
	"testing"

	"repro/internal/tree"
)

// warmNet builds a fixed network at its maintenance fixpoint and drives
// enough tokens through every input wire that every wire memo is filled.
func warmNet(t *testing.T, width, nodes int) (*Network, *Client) {
	t.Helper()
	n := mustNew(t, Config{Width: width, Seed: 21, InitialNodes: nodes})
	if _, err := n.MaintainToFixpoint(200); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	for i := 0; i < 64*width; i++ {
		if _, err := c.InjectAt(i % width); err != nil {
			t.Fatal(err)
		}
	}
	return n, c
}

func TestWarmInjectAtAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the token path")
	}
	const width = 64
	_, c := warmNet(t, width, 16)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.InjectAt(i % width); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm InjectAt made %v allocations per token, want 0", allocs)
	}
}

func TestWarmInjectBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the token path")
	}
	const width = 64
	_, c := warmNet(t, width, 16)
	ins := make([]int, 96)
	for i := range ins {
		ins[i] = (i * 7) % width
	}
	for i := 0; i < 16; i++ {
		if _, err := c.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm InjectBatch made %v allocations per batch, want 0", allocs)
	}
}

// TestWireMemoSurvivesEpochChange publishes a new topology epoch that
// leaves every component in place and checks that the tokens after it
// are metered exactly like the same tokens on an identical network that
// saw no new epoch: the stale stamps re-validate as cache hits and cost
// no lookup.
func TestWireMemoSurvivesEpochChange(t *testing.T) {
	const width = 64
	bumped, cb := warmNet(t, width, 16)
	_, cp := warmNet(t, width, 16)

	before := bumped.Metrics()
	epoch, comps := bumped.TopologyEpoch(), bumped.NumComponents()
	if _, err := bumped.Maintain(); err != nil {
		t.Fatal(err)
	}
	if bumped.TopologyEpoch() == epoch {
		t.Fatal("Maintain published no new epoch")
	}
	if d := bumped.Metrics().Sub(before); d.Splits+d.Merges+d.Moves != 0 || bumped.NumComponents() != comps {
		t.Fatalf("Maintain at the fixpoint changed the cut: %+v", d)
	}

	before = bumped.Metrics()
	for i := 0; i < 4*width; i++ {
		in := (i * 5) % width
		got, err := cb.InjectAt(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cp.InjectAt(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("token %d on wire %d after the epoch change: trace %+v, want %+v", i, in, got, want)
		}
		if got.CacheMisses != 0 {
			t.Fatalf("token %d: %d cache misses with every neighbor in place", i, got.CacheMisses)
		}
	}
	if d := bumped.Metrics().Sub(before); d.NameLookups != 0 {
		t.Fatalf("%d name lookups after an epoch change that moved nothing", d.NameLookups)
	}
}

// TestWireMemoBouncesOnceWhenNeighborMoves follows one output wire's memo
// through a neighbor move: the first use after the move is exactly one
// cache miss, after which the re-resolved memo hits again.
func TestWireMemoBouncesOnceWhenNeighborMoves(t *testing.T) {
	const width = 64
	n, _ := warmNet(t, width, 16)

	// Pick the first memoized neighbor whose host differs from its
	// sender's, so removing that host moves the neighbor only.
	var (
		from *liveComp
		wire int
		to   *liveComp
	)
	paths := make([]tree.Path, 0, len(n.comps))
	for p := range n.comps {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		lc := n.comps[p]
		for o, d := range lc.wires {
			if d.to != nil && d.to.host != lc.host && from == nil {
				from, wire, to = lc, o, d.to
			}
		}
	}
	if from == nil {
		t.Fatal("no wire memo leads to a neighbor on another node")
	}

	follow := func() TokenTrace {
		t.Helper()
		n.mu.RLock()
		defer n.mu.RUnlock()
		var tr TokenTrace
		next, exited, _, err := n.resolveNext(n.topo.Load(), from, wire, &tr, nil)
		if err != nil || exited || next != to {
			t.Fatalf("wire %d of %v resolved to %v (exited %v, err %v), want %v",
				wire, from.st.Comp, next, exited, err, to.st.Comp)
		}
		return tr
	}

	if tr := follow(); tr.CacheHits != 1 || tr.CacheMisses != 0 || tr.NameLookups != 0 {
		t.Fatalf("warm memo: %+v, want one hit and nothing else", tr)
	}
	oldHost := to.host
	if err := n.RemoveNode(oldHost); err != nil {
		t.Fatal(err)
	}
	if to.host == oldHost || n.comps[to.st.Comp.Path] != to {
		t.Fatalf("neighbor %v did not move in place", to.st.Comp)
	}
	if tr := follow(); tr.CacheMisses != 1 || tr.CacheHits != 0 {
		t.Fatalf("first use after the move: %+v, want exactly one miss", tr)
	}
	if tr := follow(); tr.CacheHits != 1 || tr.CacheMisses != 0 || tr.NameLookups != 0 {
		t.Fatalf("second use after the move: %+v, want one hit and nothing else", tr)
	}
}
