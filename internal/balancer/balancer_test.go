package balancer

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSeqHasStep(t *testing.T) {
	tests := []struct {
		name string
		seq  Seq
		want bool
	}{
		{"empty", Seq{}, true},
		{"single", Seq{5}, true},
		{"flat", Seq{2, 2, 2}, true},
		{"step", Seq{3, 3, 2, 2}, true},
		{"increasing", Seq{1, 2}, false},
		{"big drop", Seq{4, 2}, false},
		{"late rise", Seq{2, 2, 3}, false},
		{"two small drops", Seq{2, 1, 1, 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.seq.HasStep(); got != tt.want {
				t.Fatalf("HasStep(%v) = %v, want %v", tt.seq, got, tt.want)
			}
		})
	}
}

func TestStepSeq(t *testing.T) {
	s := StepSeq(4, 6)
	want := Seq{2, 2, 1, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("StepSeq(4,6) = %v, want %v", s, want)
		}
	}
	if !s.HasStep() || s.Total() != 6 {
		t.Fatalf("StepSeq invariants broken: %v", s)
	}
}

func TestStepSeqProperty(t *testing.T) {
	f := func(w uint8, total uint16) bool {
		width := int(w%32) + 1
		s := StepSeq(width, int64(total))
		return s.HasStep() && s.Total() == int64(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadSchedules(t *testing.T) {
	tests := []struct {
		name   string
		layers []Layer
	}{
		{"out of range", []Layer{{{Top: 0, Bottom: 4}}}},
		{"negative", []Layer{{{Top: -1, Bottom: 1}}}},
		{"self pair", []Layer{{{Top: 1, Bottom: 1}}}},
		{"overlap", []Layer{{{Top: 0, Bottom: 1}, {Top: 1, Bottom: 2}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(4, tt.layers); err == nil {
				t.Fatal("Build accepted an invalid schedule")
			}
		})
	}
}

func TestSingleBalancerAlternates(t *testing.T) {
	n := MustBuild(2, []Layer{{{Top: 0, Bottom: 1}}})
	got := []int{n.Traverse(0), n.Traverse(0), n.Traverse(1), n.Traverse(0)}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", got, want)
		}
	}
	out := n.Out()
	if out[0] != 2 || out[1] != 2 {
		t.Fatalf("out = %v, want [2 2]", out)
	}
}

func TestPassThroughWire(t *testing.T) {
	// Width 4, single layer touching wires 0,1 only: tokens on 2,3 pass.
	n := MustBuild(4, []Layer{{{Top: 0, Bottom: 1}}})
	if got := n.Traverse(2); got != 2 {
		t.Fatalf("wire 2 should pass through, got %d", got)
	}
	if got := n.Traverse(3); got != 3 {
		t.Fatalf("wire 3 should pass through, got %d", got)
	}
}

func TestDepthAndSize(t *testing.T) {
	n := MustBuild(4, []Layer{
		{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}},
		{{Top: 1, Bottom: 2}},
	})
	if n.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", n.Depth())
	}
	if n.Size() != 3 {
		t.Fatalf("size = %d, want 3", n.Size())
	}
}

func TestReset(t *testing.T) {
	n := MustBuild(2, []Layer{{{Top: 0, Bottom: 1}}})
	n.Traverse(0)
	n.Reset()
	if got := n.Traverse(0); got != 0 {
		t.Fatalf("after reset first token should exit wire 0, got %d", got)
	}
	if total := n.Out().Total(); total != 1 {
		t.Fatalf("after reset out total = %d, want 1", total)
	}
}

func TestCheckStepReportsViolation(t *testing.T) {
	// A deliberately broken "network": identity over 2 wires.
	n := MustBuild(2, nil)
	n.Traverse(1) // token on bottom wire only -> (0,1): not a step sequence
	if err := n.CheckStep(); err == nil {
		t.Fatal("expected step violation for identity network")
	}
}

// TestSequentialTokenExitsInOrder verifies the fundamental sequential
// property used by the split-initialization argument: feeding a counting
// network one token at a time makes token t exit on wire t mod w.
func TestSequentialTokenExitsInOrder(t *testing.T) {
	// Width-4 bitonic network, written out longhand.
	n := MustBuild(4, []Layer{
		{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}},
		{{Top: 0, Bottom: 3}, {Top: 1, Bottom: 2}}, // merger sub-stage
		{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		got := n.Traverse(rng.Intn(4))
		if got != i%4 {
			t.Fatalf("token %d exited wire %d, want %d", i, got, i%4)
		}
	}
}

func TestConcurrentTraversalQuiescentStep(t *testing.T) {
	n := MustBuild(4, []Layer{
		{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}},
		{{Top: 0, Bottom: 3}, {Top: 1, Bottom: 2}},
		{{Top: 0, Bottom: 1}, {Top: 2, Bottom: 3}},
	})
	const workers = 8
	const tokensPer = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < tokensPer; i++ {
				n.Traverse(rng.Intn(4))
			}
		}(int64(w))
	}
	wg.Wait()
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if total := n.Out().Total(); total != workers*tokensPer {
		t.Fatalf("tokens out = %d, want %d", total, workers*tokensPer)
	}
}

func TestHasComparator(t *testing.T) {
	n := MustBuild(4, []Layer{{{Top: 0, Bottom: 1}}})
	if !n.HasComparator(0, 0) || !n.HasComparator(0, 1) {
		t.Fatal("comparator wires not reported")
	}
	if n.HasComparator(0, 2) || n.HasComparator(0, 3) {
		t.Fatal("pass-through wires reported as comparators")
	}
}
