package tree

import (
	"errors"
	"math/rand"
	"testing"
)

// TestWireWalkInvertsSourceOf pins the cut-level walk against SourceOf and
// Produce, which are written independently of it. On seeded random cuts:
// every cut member's output wire, left and entered, lands on a cut member
// input (or exits the network, each network output exactly once), and
// SourceOf followed by Produce leads back to the same member output; every
// network input entered from the root reaches the member input whose
// SourceOf names that network input.
func TestWireWalkInvertsSourceOf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for w := 4; w <= 64; w *= 2 {
		for trial := 0; trial < 8; trial++ {
			cut := RandomCut(w, rng.Float64(), rng)
			member := func(c Component) bool { return cut[c.Path] }
			comps, err := cut.Components(w)
			if err != nil {
				t.Fatal(err)
			}
			exits := make(map[int]bool)
			for _, c := range comps {
				for o := 0; o < c.Width; o++ {
					next, wire, exit, err := AHS94.Leave(w, c, o)
					if err != nil {
						t.Fatal(err)
					}
					if exit {
						if wire < 0 || wire >= w || exits[wire] {
							t.Fatalf("w=%d %v out %d: bad or repeated network output %d", w, c, o, wire)
						}
						exits[wire] = true
						continue
					}
					dst, in, err := AHS94.Enter(next, wire, member)
					if err != nil {
						t.Fatalf("w=%d %v out %d: %v", w, c, o, err)
					}
					src, srcOut, fromNet, _, err := SourceOf(w, dst.Path, in)
					if err != nil || fromNet {
						t.Fatalf("w=%d %v out %d -> %v in %d: SourceOf fromNet=%v err=%v", w, c, o, dst, in, fromNet, err)
					}
					prod, po, err := Produce(src, srcOut, member)
					if err != nil {
						t.Fatal(err)
					}
					if prod.Path != c.Path || po != o {
						t.Fatalf("w=%d %v out %d -> %v in %d, but it is produced by %v out %d", w, c, o, dst, in, prod, po)
					}
				}
			}
			if len(exits) != w {
				t.Fatalf("w=%d: %d network outputs reached, want %d", w, len(exits), w)
			}
			for netIn := 0; netIn < w; netIn++ {
				dst, in, err := AHS94.Enter(MustRoot(w), netIn, member)
				if err != nil {
					t.Fatal(err)
				}
				_, _, fromNet, got, err := SourceOf(w, dst.Path, in)
				if err != nil || !fromNet || got != netIn {
					t.Fatalf("w=%d network input %d -> %v in %d: SourceOf fromNet=%v netIn=%d err=%v", w, netIn, dst, in, fromNet, got, err)
				}
			}
		}
	}
}

// TestWireWalkUncovered: a descent that no component accepts fails with
// ErrUncovered, and an accepted start component is returned unchanged.
func TestWireWalkUncovered(t *testing.T) {
	root := MustRoot(16)
	none := func(Component) bool { return false }
	if _, _, err := AHS94.Enter(root, 3, none); !errors.Is(err, ErrUncovered) {
		t.Fatalf("Enter: err = %v, want ErrUncovered", err)
	}
	if _, _, err := Produce(root, 3, none); !errors.Is(err, ErrUncovered) {
		t.Fatalf("Produce: err = %v, want ErrUncovered", err)
	}
	c, in, err := AHS94.Enter(root, 3, Component.IsLeaf)
	if err != nil || !c.IsLeaf() || in < 0 || in > 1 {
		t.Fatalf("Enter to a leaf: %v in %d err %v", c, in, err)
	}
	if c, in, err := Prose.Enter(root, 3, func(Component) bool { return true }); err != nil || c.Path != "" || in != 3 {
		t.Fatalf("Enter accepting the start: %v in %d err %v", c, in, err)
	}
}
