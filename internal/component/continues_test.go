package component

import (
	"math/rand"
	"testing"

	"repro/internal/balancer"
	"repro/internal/bitonic"
	"repro/internal/tree"
)

// balancerNetwork returns the balancer network a width-4 component
// expands to: its children are then individual balancers, so the child
// assembly that a split creates IS this network.
func balancerNetwork(t *testing.T, k tree.Kind) *balancer.Network {
	t.Helper()
	var n *balancer.Network
	var err error
	switch k {
	case tree.KindBitonic:
		n, err = bitonic.New(4)
	case tree.KindMerger:
		n, err = bitonic.NewMerger(4)
	case tree.KindMix:
		// MIX[4] is two MIX[2] balancers on adjacent wires.
		n, err = balancer.Build(4, []balancer.Layer{{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}}})
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestContinuesStepMatchesBalancerNetworks checks the split predicate
// exhaustively at width 4, where it has an exact ground truth: feed the
// history into the component's balancer network and compare its output
// with the step sequence the component emitted.
func TestContinuesStepMatchesBalancerNetworks(t *testing.T) {
	for _, k := range []tree.Kind{tree.KindBitonic, tree.KindMerger, tree.KindMix} {
		c := tree.Component{Kind: k, Width: 4}
		fails := 0
		for code := 0; code < 256; code++ {
			in := []uint64{uint64(code & 3), uint64(code >> 2 & 3), uint64(code >> 4 & 3), uint64(code >> 6)}
			got, err := SplitContinuesStep(c, in)
			if err != nil {
				t.Fatal(err)
			}
			n := balancerNetwork(t, k)
			var total int64
			for w, cnt := range in {
				for i := uint64(0); i < cnt; i++ {
					n.Traverse(w)
				}
				total += int64(cnt)
			}
			out, want := n.Out(), balancer.StepSeq(4, total)
			ok := true
			for i := range out {
				ok = ok && out[i] == want[i]
			}
			if got != ok {
				t.Fatalf("%v history %v: predicate %v, balancer network emits %v", c, in, got, out)
			}
			if !got {
				fails++
			}
		}
		if k == tree.KindBitonic && fails != 0 {
			t.Fatalf("%v: %d histories fail, want none", c, fails)
		}
		if k != tree.KindBitonic && fails == 0 {
			t.Fatalf("%v: every history passes; the predicate is vacuous", c)
		}
	}
}

// TestContinuesStepE17 pins the E17 history: MERGER[4] with inputs
// (3,2,1,1) is shaped (both halves are step sequences), so it splits,
// while tokens still in flight to its bottom half can leave it unshaped.
func TestContinuesStepE17(t *testing.T) {
	m := tree.Component{Kind: tree.KindMerger, Width: 4}
	for _, tc := range []struct {
		in   []uint64
		want bool
	}{
		{[]uint64{3, 2, 1, 1}, true},
		{[]uint64{3, 2, 0, 0}, true},
		{[]uint64{3, 2, 0, 1}, false}, // bottom half (0,1) is not a step
	} {
		got, err := SplitContinuesStep(m, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("MERGER[4] history %v: predicate %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestContinuesStepOnShapedInputs checks wider components on the inputs
// the bitonic network feeds them: any history for a BITONIC; two step
// halves, as two Bitonic[k/2] networks emit, for a MERGER; for a MIX, two
// interleaved step sequences whose totals differ by at most one, as the
// two sub-mergers of a Merger emit.
func TestContinuesStepOnShapedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{8, 16, 32} {
		h := w / 2
		for trial := 0; trial < 200; trial++ {
			any := make([]uint64, w)
			for i := range any {
				any[i] = uint64(rng.Intn(5))
			}
			merger := make([]uint64, 0, w)
			for half := 0; half < 2; half++ {
				n, err := bitonic.New(h)
				if err != nil {
					t.Fatal(err)
				}
				for i, tokens := 0, rng.Intn(3*h); i < tokens; i++ {
					n.Traverse(rng.Intn(h))
				}
				for _, x := range n.Out() {
					merger = append(merger, uint64(x))
				}
			}
			mix := make([]uint64, w)
			odd := uint64(rng.Intn(3 * h))
			even := odd + uint64(rng.Intn(2))
			for o := 0; o < h; o++ {
				mix[2*o], mix[2*o+1] = stepOn(even, h, o), stepOn(odd, h, o)
			}
			for _, tc := range []struct {
				k  tree.Kind
				in []uint64
			}{{tree.KindBitonic, any}, {tree.KindMerger, merger}, {tree.KindMix, mix}} {
				c := tree.Component{Kind: tc.k, Width: w}
				ok, err := SplitContinuesStep(c, tc.in)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%v: shaped history %v fails", c, tc.in)
				}
			}
		}
	}
}

// TestMergeContinuesStepNeedsQuiescence: a merge check on an assembly
// with tokens in flight is an error, not a verdict.
func TestMergeContinuesStepNeedsQuiescence(t *testing.T) {
	b := tree.MustRoot(8)
	if _, err := MergeContinuesStep(b, []uint64{2, 1, 2, 0, 3, 0}); err == nil {
		t.Fatal("non-quiescent assembly accepted")
	}
	if _, err := MergeContinuesStep(b, []uint64{1, 1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	totals, err := SplitTotalsFromInputs(b, []uint64{3, 0, 1, 0, 0, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := MergeContinuesStep(b, totals)
	if err != nil || !ok {
		t.Fatalf("quiescent BITONIC[8] assembly: %v, %v", ok, err)
	}
}
