// Package sim is a discrete-event simulator for the counting network:
// overlay nodes are banks of per-core FIFO queues with work stealing (one
// single-server queue by default), inter-component wires have link latency,
// and tokens are events flowing through the current cut.
//
// The paper argues latency through effective depth and throughput through
// effective width; this simulator turns those structural quantities into
// time, so the E23 experiment can show the saturation behavior they imply:
// a single-component (centralized) network saturates at one node's service
// rate, while the adaptive network's capacity grows with the system size.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/chord"
	"repro/internal/component"
	"repro/internal/tree"
)

// Config describes one simulation.
type Config struct {
	// Width is the network width w.
	Width int
	// Cut is the cut to instantiate (defaults to the root-only cut).
	Cut tree.Cut
	// Nodes is the number of overlay nodes components are hashed onto.
	Nodes int
	// ServiceTime is the time a node takes to process one token at one
	// component (arbitrary time units).
	ServiceTime float64
	// CoresPerNode partitions each node's single FIFO into that many
	// per-core queues with work stealing: a component's tokens have an
	// affine core (components are hashed onto cores the way they are hashed
	// onto nodes), and a token arriving while its affine core is backlogged
	// is stolen by the core that would start serving it earliest. 0 or 1
	// keeps the single-server behavior exactly.
	CoresPerNode int
	// StealCost is the migration penalty a stolen token pays (same time
	// units as ServiceTime): cache and state movement off the affine core.
	// A steal only happens when the thief still wins after the penalty —
	// its effective start (busyUntil + StealCost) beats the affine core's —
	// and a stolen token occupies the thief for StealCost + ServiceTime.
	// Zero reproduces the free-stealing behavior exactly. Must be >= 0.
	StealCost float64
	// StealHalf switches the steal policy from take-one to take-half: the
	// thief migrates half the affine core's remaining backlog along with
	// the triggering token, serving the moved work (plus one StealCost
	// penalty) before the token. The steal decision accounts for the moved
	// work — a thief must still start the token strictly earlier than the
	// affine core would with its full backlog. False keeps the
	// one-token-steal behavior bit-identical.
	StealHalf bool
	// LinkDelay is the one-way latency of a component-to-component wire.
	LinkDelay float64
	// ArrivalRate is the Poisson token arrival rate (tokens per time unit).
	ArrivalRate float64
	// Tokens is the number of tokens to inject.
	Tokens int
	// Seed drives arrivals and input-wire choices.
	Seed int64
	// DropRate is the probability that one inter-component message attempt
	// is lost; the sender detects the loss after RetryTimeout and re-sends,
	// so a lossy link costs extra latency, never a lost token (the
	// transport layer's retry semantics in time units). Must be in [0, 1).
	DropRate float64
	// RetryTimeout is the time a sender waits before re-sending a lost
	// message. Zero means 4 * LinkDelay.
	RetryTimeout float64
}

// Result summarizes a run.
type Result struct {
	Completed   int
	Makespan    float64 // time of the last completion
	Throughput  float64 // completed / makespan
	LatencyMean float64 // token injection-to-exit latency
	LatencyP50  float64
	LatencyP99  float64
	MaxNodeBusy float64 // utilization of the busiest node (busy time / (makespan * cores))
	Steals      int     // tokens served by a non-affine core (work stealing)
	Resends     int     // message re-sends forced by link loss
	Out         []int64 // per-output-wire emissions
}

// event is a scheduled simulator action.
type event struct {
	at  float64
	seq int // tie-breaker for determinism
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// token is an in-flight token.
type token struct {
	id    int
	start float64
}

// coreState is one simulated core: a single-server FIFO queue.
type coreState struct {
	busyUntil float64
	busyTotal float64
}

// nodeState is one overlay node: CoresPerNode independent core queues.
type nodeState struct {
	cores []coreState
}

// Sim is one simulation instance.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	queue eventQueue
	seq   int
	now   float64

	comps map[tree.Path]*component.State
	host  map[tree.Path]int
	core  map[tree.Path]int // affine core of a component on its host
	nodes []nodeState

	out       []int64
	latencies []float64
	completed int
	lastDone  float64
	resends   int
	steals    int
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Cut == nil {
		cfg.Cut = tree.RootCut()
	}
	if err := cfg.Cut.Validate(cfg.Width); err != nil {
		return nil, err
	}
	if cfg.Nodes < 1 || cfg.ServiceTime <= 0 || cfg.ArrivalRate <= 0 || cfg.Tokens < 1 {
		return nil, fmt.Errorf("sim: need Nodes>=1, ServiceTime>0, ArrivalRate>0, Tokens>=1")
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("sim: DropRate %v outside [0, 1)", cfg.DropRate)
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 4 * cfg.LinkDelay
	}
	if cfg.CoresPerNode < 0 {
		return nil, fmt.Errorf("sim: CoresPerNode %d must be >= 0", cfg.CoresPerNode)
	}
	if cfg.StealCost < 0 {
		return nil, fmt.Errorf("sim: StealCost %v must be >= 0", cfg.StealCost)
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 1
	}
	s := &Sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		comps: make(map[tree.Path]*component.State),
		host:  make(map[tree.Path]int),
		core:  make(map[tree.Path]int),
		nodes: make([]nodeState, cfg.Nodes),
		out:   make([]int64, cfg.Width),
	}
	for i := range s.nodes {
		s.nodes[i].cores = make([]coreState, cfg.CoresPerNode)
	}
	comps, err := cfg.Cut.Components(cfg.Width)
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		s.comps[c.Path] = component.New(c)
		h := uint64(chord.Hash(c.Name()))
		s.host[c.Path] = int(h % uint64(cfg.Nodes))
		// Affinity reuses the placement hash's remaining entropy so the
		// same components always meet the same core between arrivals.
		s.core[c.Path] = int(h / uint64(cfg.Nodes) % uint64(cfg.CoresPerNode))
	}
	return s, nil
}

// Run injects cfg.Tokens tokens with Poisson arrivals and runs to
// completion.
func (s *Sim) Run() (Result, error) {
	at := 0.0
	for i := 0; i < s.cfg.Tokens; i++ {
		at += s.rng.ExpFloat64() / s.cfg.ArrivalRate
		tok := &token{id: i, start: at}
		in := s.rng.Intn(s.cfg.Width)
		s.schedule(at, func() { s.arriveAtEntry(tok, in) })
	}
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		ev.fn()
	}
	return s.result()
}

func (s *Sim) schedule(at float64, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// arriveAtEntry routes a new token to the input component covering wire in.
func (s *Sim) arriveAtEntry(tok *token, in int) {
	if entry, _, err := tree.AHS94.Enter(tree.MustRoot(s.cfg.Width), in, s.live); err == nil {
		s.arriveAtComp(tok, entry)
	}
}

// live reports whether c is a member of the simulated cut.
func (s *Sim) live(c tree.Component) bool { return s.comps[c.Path] != nil }

// arriveAtComp queues the token on a core of the component's host node:
// the component's affine core, unless that core is backlogged and another
// core would — even after paying the StealCost migration penalty — start
// serving the token strictly earlier (work stealing; ties keep affinity,
// and the earliest-start scan breaks its own ties by core index, so runs
// stay deterministic). A stolen token occupies the thief for StealCost +
// ServiceTime: the migration is work the thief does, not elapsed-only
// latency.
func (s *Sim) arriveAtComp(tok *token, comp tree.Component) {
	node := &s.nodes[s.host[comp.Path]]
	core := &node.cores[s.core[comp.Path]]
	cost := 0.0
	if len(node.cores) > 1 && core.busyUntil > s.now {
		// Under StealHalf the thief also takes half the affine core's
		// remaining backlog, so the moved work delays the thief's start for
		// this token; a steal must win despite it. Tokens already scheduled
		// inside the moved window keep their completion times — the
		// migration's effect is on subsequent arrivals, which see both
		// queues' lengths changed.
		moved := 0.0
		if s.cfg.StealHalf {
			moved = (core.busyUntil - s.now) / 2
		}
		best, bestEff := core, core.busyUntil
		for i := range node.cores {
			c := &node.cores[i]
			eff := c.busyUntil
			if c != core {
				eff += s.cfg.StealCost + moved
			}
			if eff < bestEff {
				best, bestEff = c, eff
			}
		}
		if best != core {
			core.busyUntil -= moved
			core.busyTotal -= moved
			core = best
			cost = s.cfg.StealCost + moved
			s.steals++
		}
	}
	start := s.now
	if core.busyUntil > start {
		start = core.busyUntil
	}
	done := start + cost + s.cfg.ServiceTime
	core.busyUntil = done
	core.busyTotal += cost + s.cfg.ServiceTime
	s.schedule(done, func() { s.processAt(tok, comp) })
}

// processAt performs the component step and forwards or completes the
// token.
func (s *Sim) processAt(tok *token, comp tree.Component) {
	o := s.comps[comp.Path].Step()
	next, wire, exited, err := tree.AHS94.Leave(s.cfg.Width, comp, o)
	if err != nil {
		return
	}
	if exited {
		s.out[wire]++
		s.completed++
		s.latencies = append(s.latencies, s.now-tok.start)
		if s.now > s.lastDone {
			s.lastDone = s.now
		}
		return
	}
	if next, _, err = tree.AHS94.Enter(next, wire, s.live); err != nil {
		return
	}
	s.schedule(s.now+s.linkTime(), func() { s.arriveAtComp(tok, next) })
}

// linkTime is the delivery time of one inter-component message: the link
// delay, plus one retry timeout per lost attempt.
func (s *Sim) linkTime() float64 {
	d := s.cfg.LinkDelay
	for s.cfg.DropRate > 0 && s.rng.Float64() < s.cfg.DropRate {
		s.resends++
		d += s.cfg.RetryTimeout
	}
	return d
}

func (s *Sim) result() (Result, error) {
	if s.completed != s.cfg.Tokens {
		return Result{}, fmt.Errorf("sim: completed %d of %d tokens", s.completed, s.cfg.Tokens)
	}
	sorted := make([]float64, len(s.latencies))
	copy(sorted, s.latencies)
	sort.Float64s(sorted)
	mean := 0.0
	for _, l := range sorted {
		mean += l
	}
	mean /= float64(len(sorted))
	// A node's utilization is its cores' aggregate busy time over the time
	// the cores collectively had available, so it stays in [0,1] for any
	// CoresPerNode.
	maxBusy := 0.0
	for _, n := range s.nodes {
		var busy float64
		for _, c := range n.cores {
			busy += c.busyTotal
		}
		if u := busy / (s.lastDone * float64(len(n.cores))); u > maxBusy {
			maxBusy = u
		}
	}
	out := make([]int64, len(s.out))
	copy(out, s.out)
	return Result{
		Completed:   s.completed,
		Makespan:    s.lastDone,
		Throughput:  float64(s.completed) / s.lastDone,
		LatencyMean: mean,
		LatencyP50:  sorted[len(sorted)/2],
		LatencyP99:  sorted[(len(sorted)*99)/100],
		MaxNodeBusy: maxBusy,
		Steals:      s.steals,
		Resends:     s.resends,
		Out:         out,
	}, nil
}
