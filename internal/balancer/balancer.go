// Package balancer implements balancer-level balancing networks: the
// classical model of Aspnes, Herlihy and Shavit (JACM 1994) that the paper
// builds on. A balancer is an asynchronous two-input/two-output switch that
// forwards its i-th token to output i mod 2. A balancing network is an
// acyclic wiring of balancers; a counting network is a balancing network
// whose quiescent output distribution always has the step property.
//
// Networks in this package are represented as layered comparator schedules
// over w fixed wire tracks, which is how the bitonic and periodic networks
// are classically drawn. The package provides token traversal (sequential
// and concurrency-safe), quiescent output accounting and step-property
// checking. It serves as the ground truth against which the component-based
// adaptive implementation is validated.
package balancer

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Seq is a sequence of per-wire token counts.
type Seq []int64

// HasStep reports whether the sequence satisfies the step property:
// for every i < j, 0 <= x_i - x_j <= 1. Adjacent differences of 0 or 1
// are not enough — (2,1,1,0) has them — so the sequence must also be
// non-increasing with its first and last entries at most 1 apart.
func (s Seq) HasStep() bool {
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			return false
		}
	}
	return len(s) == 0 || s[0]-s[len(s)-1] <= 1
}

// Total returns the sum of the sequence.
func (s Seq) Total() int64 {
	var t int64
	for _, x := range s {
		t += x
	}
	return t
}

// StepSeq returns the unique step-property sequence of the given width
// whose total is total: wire i receives ceil((total-i)/width) tokens.
func StepSeq(width int, total int64) Seq {
	s := make(Seq, width)
	w64 := int64(width)
	base := total / w64
	rem := total % w64
	for i := range s {
		s[i] = base
		if int64(i) < rem {
			s[i]++
		}
	}
	return s
}

// Comparator is a balancer placed on two wire tracks. Tokens entering on
// either track leave on Top first, then Bottom, alternating.
type Comparator struct {
	Top, Bottom int
}

// slot is the runtime state of one comparator.
type slot struct {
	toggle      uint64
	top, bottom int
}

// Layer is a set of comparators that touch disjoint wires.
type Layer []Comparator

// Network is a layered balancing network over Width wire tracks.
type Network struct {
	Width  int
	Layers []Layer

	// slots[l][w] describes the comparator in layer l touching wire w
	// (both wires of a comparator alias the same slot). The toggle's low
	// bit selects the next output; the full value counts tokens.
	slots [][]*slot

	// out[w] counts tokens emitted on output wire w.
	out []int64
	mu  sync.Mutex
}

// Build finalizes a network from a comparator schedule.
func Build(width int, layers []Layer) (*Network, error) {
	n := &Network{Width: width, Layers: layers}
	n.slots = make([][]*slot, len(layers))
	for li, layer := range layers {
		row := make([]*slot, width)
		for _, c := range layer {
			if c.Top < 0 || c.Bottom < 0 || c.Top >= width || c.Bottom >= width {
				return nil, fmt.Errorf("balancer: layer %d comparator %v out of range [0,%d)", li, c, width)
			}
			if c.Top == c.Bottom {
				return nil, fmt.Errorf("balancer: layer %d comparator touches wire %d twice", li, c.Top)
			}
			if row[c.Top] != nil || row[c.Bottom] != nil {
				return nil, fmt.Errorf("balancer: layer %d has overlapping comparators at %v", li, c)
			}
			s := &slot{top: c.Top, bottom: c.Bottom}
			row[c.Top] = s
			row[c.Bottom] = s
		}
		n.slots[li] = row
	}
	n.out = make([]int64, width)
	return n, nil
}

// MustBuild is Build for statically-correct schedules; it panics on error.
func MustBuild(width int, layers []Layer) *Network {
	n, err := Build(width, layers)
	if err != nil {
		panic(err)
	}
	return n
}

// HasComparator reports whether a comparator touches wire w in layer l.
func (n *Network) HasComparator(l, w int) bool {
	return n.slots[l][w] != nil
}

// WireAfter returns the wire a token sits on after passing layer l having
// arrived on wire w, using an atomic toggle so concurrent traversals are
// linearizable per balancer. It advances the balancer's state.
func (n *Network) WireAfter(l, w int) int {
	s := n.slots[l][w]
	if s == nil {
		return w // no comparator on this wire in this layer
	}
	v := atomic.AddUint64(&s.toggle, 1) - 1
	if v%2 == 0 {
		return s.top
	}
	return s.bottom
}

// Traverse sends one token into input wire in and returns the output wire
// it leaves on. It is safe for concurrent use.
func (n *Network) Traverse(in int) int {
	w := in
	for l := range n.Layers {
		w = n.WireAfter(l, w)
	}
	n.mu.Lock()
	n.out[w]++
	n.mu.Unlock()
	return w
}

// Out returns a copy of the per-output-wire token counts.
func (n *Network) Out() Seq {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := make(Seq, len(n.out))
	copy(s, n.out)
	return s
}

// Depth returns the number of layers.
func (n *Network) Depth() int { return len(n.Layers) }

// Size returns the number of balancers.
func (n *Network) Size() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l)
	}
	return total
}

// Reset clears all balancer toggles and output counts.
func (n *Network) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, row := range n.slots {
		for _, s := range row {
			if s != nil {
				atomic.StoreUint64(&s.toggle, 0)
			}
		}
	}
	for i := range n.out {
		n.out[i] = 0
	}
}

// CheckStep verifies the quiescent step property of the outputs observed
// so far. The caller must ensure the network is quiescent (no concurrent
// Traverse in flight).
func (n *Network) CheckStep() error {
	out := n.Out()
	if !out.HasStep() {
		return fmt.Errorf("balancer: output %v violates the step property", out)
	}
	return nil
}
