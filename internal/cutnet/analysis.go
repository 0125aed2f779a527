package cutnet

import (
	"sort"

	"repro/internal/flow"
	"repro/internal/tree"
)

// DAG is the component graph of a cut network: vertices are the live
// components, edges follow the wires of the decomposition. Inputs and
// Outputs are the network's input and output layers (Section 1.4).
type DAG struct {
	Comps   []tree.Component
	Index   map[tree.Path]int
	Edges   [][2]int // component index -> component index, deduplicated
	Inputs  []int    // indices of input-layer components
	Outputs []int    // indices of output-layer components
}

// Analyze extracts the component DAG of the current cut.
func (n *Net) Analyze() (*DAG, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()

	comps := make([]tree.Component, 0, len(n.comps))
	for _, st := range n.comps {
		comps = append(comps, st.Comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Path < comps[j].Path })
	idx := make(map[tree.Path]int, len(comps))
	for i, c := range comps {
		idx[c.Path] = i
	}

	d := &DAG{Comps: comps, Index: idx}

	// Input layer: follow each network input wire down to its cut member.
	inSet := make(map[int]bool)
	for in := 0; in < n.width; in++ {
		c, _, err := n.wiring.Enter(tree.MustRoot(n.width), in, n.live)
		if err != nil {
			return nil, err
		}
		inSet[idx[c.Path]] = true
	}

	// Edges and output layer: resolve every output wire of every component.
	edgeSet := make(map[[2]int]bool)
	outSet := make(map[int]bool)
	for i, c := range comps {
		for o := 0; o < c.Width; o++ {
			dst, _, exited, err := n.nextLocked(c, o)
			if err != nil {
				return nil, err
			}
			if exited {
				outSet[i] = true
				continue
			}
			edgeSet[[2]int{i, idx[dst.Path]}] = true
		}
	}
	for e := range edgeSet {
		d.Edges = append(d.Edges, e)
	}
	sort.Slice(d.Edges, func(a, b int) bool {
		if d.Edges[a][0] != d.Edges[b][0] {
			return d.Edges[a][0] < d.Edges[b][0]
		}
		return d.Edges[a][1] < d.Edges[b][1]
	})
	for i := range comps {
		if inSet[i] {
			d.Inputs = append(d.Inputs, i)
		}
		if outSet[i] {
			d.Outputs = append(d.Outputs, i)
		}
	}
	sort.Ints(d.Inputs)
	sort.Ints(d.Outputs)
	return d, nil
}

// EffectiveWidth computes Definition 1.1: the maximum number of
// vertex-disjoint paths from the input layer to the output layer.
func (n *Net) EffectiveWidth() (int, error) {
	d, err := n.Analyze()
	if err != nil {
		return 0, err
	}
	return d.EffectiveWidth(), nil
}

// EffectiveDepth computes Definition 1.2: the number of components on the
// longest input-layer-to-output-layer path.
func (n *Net) EffectiveDepth() (int, error) {
	d, err := n.Analyze()
	if err != nil {
		return 0, err
	}
	return d.EffectiveDepth(), nil
}

// EffectiveWidth computes the maximum number of vertex-disjoint
// input-to-output paths of the DAG.
func (d *DAG) EffectiveWidth() int {
	return flow.VertexDisjointPaths(len(d.Comps), d.Edges, d.Inputs, d.Outputs)
}

// EffectiveDepth computes the longest path (in components) from an
// input-layer component to an output-layer component.
func (d *DAG) EffectiveDepth() int {
	nv := len(d.Comps)
	adj := make([][]int, nv)
	indeg := make([]int, nv)
	for _, e := range d.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	// Longest path ending at v, starting from an input-layer component.
	best := make([]int, nv)
	for _, v := range d.Inputs {
		best[v] = 1
	}
	queue := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if best[v] > 0 && best[v]+1 > best[u] {
				best[u] = best[v] + 1
			}
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	depth := 0
	outSet := make(map[int]bool, len(d.Outputs))
	for _, v := range d.Outputs {
		outSet[v] = true
	}
	for v := 0; v < nv; v++ {
		if outSet[v] && best[v] > depth {
			depth = best[v]
		}
	}
	return depth
}
