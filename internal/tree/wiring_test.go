package tree

import (
	"testing"
)

var kinds = []Kind{KindBitonic, KindMerger, KindMix}

// TestChildInputBijection: the parent's k input wires map bijectively onto
// the entry children's inputs (children 0 and 1, h wires each).
func TestChildInputBijection(t *testing.T) {
	for _, kind := range kinds {
		for _, width := range []int{4, 8, 16, 64} {
			h := width / 2
			seen := make(map[[2]int]int)
			for in := 0; in < width; in++ {
				child, childIn := ChildInput(kind, width, in)
				if child != 0 && child != 1 {
					t.Fatalf("%v[%d] input %d maps to non-entry child %d", kind, width, in, child)
				}
				if childIn < 0 || childIn >= h {
					t.Fatalf("%v[%d] input %d maps to out-of-range child wire %d", kind, width, in, childIn)
				}
				key := [2]int{child, childIn}
				if prev, dup := seen[key]; dup {
					t.Fatalf("%v[%d]: inputs %d and %d both map to %v", kind, width, prev, in, key)
				}
				seen[key] = in
			}
			if len(seen) != width {
				t.Fatalf("%v[%d]: input map not onto", kind, width)
			}
		}
	}
}

// TestInvChildInputRoundTrip: InvChildInput inverts ChildInput exactly.
func TestInvChildInputRoundTrip(t *testing.T) {
	for _, kind := range kinds {
		for _, width := range []int{4, 8, 32} {
			for in := 0; in < width; in++ {
				child, childIn := ChildInput(kind, width, in)
				back, ok := InvChildInput(kind, width, child, childIn)
				if !ok || back != in {
					t.Fatalf("%v[%d]: InvChildInput(%d,%d) = (%d,%v), want (%d,true)",
						kind, width, child, childIn, back, ok, in)
				}
			}
			// Non-entry children have no parent input wires.
			for child := 2; child < Degree(kind); child++ {
				if _, ok := InvChildInput(kind, width, child, 0); ok {
					t.Fatalf("%v[%d]: child %d should not be an entry child", kind, width, child)
				}
			}
		}
	}
}

// TestChildNextCoversEverything: the union of all children's output wires
// maps bijectively onto (non-entry children's inputs) + (parent outputs).
func TestChildNextCoversEverything(t *testing.T) {
	for _, kind := range kinds {
		for _, width := range []int{4, 8, 16, 64} {
			h := width / 2
			deg := Degree(kind)
			childInSeen := make(map[[2]int]bool)
			parentOutSeen := make(map[int]bool)
			for child := 0; child < deg; child++ {
				for out := 0; out < h; out++ {
					d := ChildNext(kind, width, child, out)
					if d.ToChild {
						if d.Child <= 1 {
							t.Fatalf("%v[%d]: child %d output feeds an entry child %d", kind, width, child, d.Child)
						}
						if d.Child >= deg || d.ChildIn < 0 || d.ChildIn >= h {
							t.Fatalf("%v[%d]: bad dest %+v", kind, width, d)
						}
						key := [2]int{d.Child, d.ChildIn}
						if childInSeen[key] {
							t.Fatalf("%v[%d]: duplicate feed into child wire %v", kind, width, key)
						}
						childInSeen[key] = true
					} else {
						if d.ParentOut < 0 || d.ParentOut >= width {
							t.Fatalf("%v[%d]: bad parent out %d", kind, width, d.ParentOut)
						}
						if parentOutSeen[d.ParentOut] {
							t.Fatalf("%v[%d]: duplicate parent out %d", kind, width, d.ParentOut)
						}
						parentOutSeen[d.ParentOut] = true
					}
				}
			}
			wantChildIns := (deg - 2) * h
			if len(childInSeen) != wantChildIns {
				t.Fatalf("%v[%d]: %d internal wires, want %d", kind, width, len(childInSeen), wantChildIns)
			}
			if len(parentOutSeen) != width {
				t.Fatalf("%v[%d]: %d parent outputs covered, want %d", kind, width, len(parentOutSeen), width)
			}
		}
	}
}

// TestWiringIsStaged: tokens always flow entry children -> middle children
// -> exit children with no back edges (the decomposition is acyclic).
func TestWiringIsStaged(t *testing.T) {
	stage := func(kind Kind, child int) int {
		switch kind {
		case KindBitonic:
			return child / 2 // B=0, M=1, X=2
		case KindMerger:
			return child / 2 // M=0, X=1
		default:
			return 0
		}
	}
	for _, kind := range kinds {
		width := 16
		for child := 0; child < Degree(kind); child++ {
			for out := 0; out < width/2; out++ {
				d := ChildNext(kind, width, child, out)
				if d.ToChild && stage(kind, d.Child) <= stage(kind, child) {
					t.Fatalf("%v: child %d feeds non-later child %d", kind, child, d.Child)
				}
			}
		}
	}
}

// TestMergerCrossWiring pins the AHS94 cross: for a BITONIC parent, even
// outputs of the top child and odd outputs of the bottom child go to the
// top merger.
func TestMergerCrossWiring(t *testing.T) {
	width := 8
	// Top bitonic child (0), output 0 (even) -> top merger (2).
	if d := ChildNext(KindBitonic, width, 0, 0); !d.ToChild || d.Child != 2 || d.ChildIn != 0 {
		t.Fatalf("top/even: %+v", d)
	}
	// Top bitonic child, output 1 (odd) -> bottom merger (3).
	if d := ChildNext(KindBitonic, width, 0, 1); !d.ToChild || d.Child != 3 || d.ChildIn != 0 {
		t.Fatalf("top/odd: %+v", d)
	}
	// Bottom bitonic child (1), output 1 (odd) -> top merger (2), lower half.
	if d := ChildNext(KindBitonic, width, 1, 1); !d.ToChild || d.Child != 2 || d.ChildIn != 2 {
		t.Fatalf("bottom/odd: %+v", d)
	}
	// Bottom bitonic child, output 0 (even) -> bottom merger (3), lower half.
	if d := ChildNext(KindBitonic, width, 1, 0); !d.ToChild || d.Child != 3 || d.ChildIn != 2 {
		t.Fatalf("bottom/even: %+v", d)
	}
}

// TestProseWiringDiffersOnlyOnBottomBitonic documents the erratum: the
// literal prose wiring differs from the AHS94 wiring exactly on the bottom
// BITONIC child's outputs (and the matching merger input map).
func TestProseWiringDiffersOnlyOnBottomBitonic(t *testing.T) {
	width := 16
	for _, kind := range kinds {
		for child := 0; child < Degree(kind); child++ {
			for out := 0; out < width/2; out++ {
				a := ChildNext(kind, width, child, out)
				b := Prose.next(kind, width, child, out)
				isBottomBitonic := kind == KindBitonic && child == 1
				if isBottomBitonic {
					if a == b {
						t.Fatalf("prose wiring should differ for bottom bitonic out %d", out)
					}
					continue
				}
				if a != b {
					t.Fatalf("prose wiring differs unexpectedly: %v child %d out %d", kind, child, out)
				}
			}
		}
	}
}

func TestSourceOfInvertsWiring(t *testing.T) {
	w := 16
	// For every component and every input wire, SourceOf must return either
	// a network input or a sibling whose ChildNext maps back to it.
	var walk func(c Component)
	walk = func(c Component) {
		for in := 0; in < c.Width; in++ {
			src, srcOut, fromNet, netIn, err := SourceOf(w, c.Path, in)
			if err != nil {
				t.Fatalf("SourceOf(%v, %d): %v", c, in, err)
			}
			if fromNet {
				if netIn < 0 || netIn >= w {
					t.Fatalf("SourceOf(%v, %d): bad network input %d", c, in, netIn)
				}
				continue
			}
			// Verify the forward direction: from (src, srcOut), climbing and
			// descending must reach (c, in). They share a parent in which
			// src is a direct child; resolve the forward edge.
			pp, sidx, ok := src.Path.Parent()
			if !ok {
				t.Fatalf("SourceOf(%v, %d): source %v is the root", c, in, src)
			}
			parent, err := ComponentAt(w, pp)
			if err != nil {
				t.Fatal(err)
			}
			d := ChildNext(parent.Kind, parent.Width, sidx, srcOut)
			if !d.ToChild {
				t.Fatalf("SourceOf(%v, %d): forward edge leaves parent", c, in)
			}
			// Descend from (parent.child(d.Child), d.ChildIn) down to c.
			cur, err := parent.Child(d.Child)
			if err != nil {
				t.Fatal(err)
			}
			wire := d.ChildIn
			for cur.Path != c.Path {
				if !cur.Path.IsAncestorOf(c.Path) {
					t.Fatalf("SourceOf(%v, %d): forward resolution diverged at %v", c, in, cur)
				}
				ci, cin := ChildInput(cur.Kind, cur.Width, wire)
				cur, err = cur.Child(ci)
				if err != nil {
					t.Fatal(err)
				}
				wire = cin
			}
			if wire != in {
				t.Fatalf("SourceOf(%v, %d): forward resolution reached wire %d", c, in, wire)
			}
		}
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(MustRoot(w))
}

// TestInvChildNextRoundTrip: InvChildNext inverts ChildNext exactly on all
// internal edges, and reports ok=false exactly for entry children.
func TestInvChildNextRoundTrip(t *testing.T) {
	for _, kind := range kinds {
		for _, width := range []int{4, 8, 16, 64} {
			h := width / 2
			for child := 0; child < Degree(kind); child++ {
				for out := 0; out < h; out++ {
					d := ChildNext(kind, width, child, out)
					if !d.ToChild {
						continue
					}
					sib, sibOut, ok := InvChildNext(kind, width, d.Child, d.ChildIn)
					if !ok || sib != child || sibOut != out {
						t.Fatalf("%v[%d]: InvChildNext(%d,%d) = (%d,%d,%v), want (%d,%d,true)",
							kind, width, d.Child, d.ChildIn, sib, sibOut, ok, child, out)
					}
				}
			}
			for _, entry := range []int{0, 1} {
				if _, _, ok := InvChildNext(kind, width, entry, 0); ok {
					t.Fatalf("%v[%d]: entry child %d should have no sibling source", kind, width, entry)
				}
			}
		}
	}
}

// TestOutputSourceRoundTrip: OutputSource inverts ChildNext's parent-out
// edges exactly.
func TestOutputSourceRoundTrip(t *testing.T) {
	for _, kind := range kinds {
		for _, width := range []int{4, 8, 32} {
			h := width / 2
			for child := 0; child < Degree(kind); child++ {
				for out := 0; out < h; out++ {
					d := ChildNext(kind, width, child, out)
					if d.ToChild {
						continue
					}
					gc, gco := OutputSource(kind, width, d.ParentOut)
					if gc != child || gco != out {
						t.Fatalf("%v[%d]: OutputSource(%d) = (%d,%d), want (%d,%d)",
							kind, width, d.ParentOut, gc, gco, child, out)
					}
				}
			}
		}
	}
}

// TestProseInputBijection: the prose-variant merger input map is also a
// bijection and is consistent with the prose ChildNext at the B->M stage.
func TestProseInputBijection(t *testing.T) {
	for _, width := range []int{4, 8, 16} {
		seen := make(map[[2]int]bool)
		for in := 0; in < width; in++ {
			child, childIn := Prose.input(KindMerger, width, in)
			key := [2]int{child, childIn}
			if seen[key] {
				t.Fatalf("w=%d: duplicate prose input mapping %v", width, key)
			}
			seen[key] = true
			if child != 0 && child != 1 {
				t.Fatalf("w=%d: prose input to non-entry child %d", width, child)
			}
		}
		if len(seen) != width {
			t.Fatalf("w=%d: prose input map not onto", width)
		}
		// Non-merger kinds defer to the standard map.
		for in := 0; in < width; in++ {
			c1, i1 := Prose.input(KindBitonic, width, in)
			c2, i2 := ChildInput(KindBitonic, width, in)
			if c1 != c2 || i1 != i2 {
				t.Fatalf("prose bitonic input map diverged")
			}
		}
	}
}
