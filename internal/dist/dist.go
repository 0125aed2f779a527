// Package dist is the asynchronous, message-level engine for the adaptive
// counting network: tokens are concurrent goroutines hopping between
// components, and splits and merges run the paper's freeze protocol
// (Section 2.2) against live traffic instead of stopping the world:
//
//   - Split: the component is frozen, its per-wire arrival history
//     initializes the children, and the children replace it.
//   - Merge: the assembly's entry children are frozen, the internal
//     in-flight tokens drain (detected by the conservation invariant:
//     every stage has processed the same number of tokens), and the
//     children's states combine into the parent, which replaces them.
//
// A split or merge commits only when its result continues the step
// sequence the old incarnations emitted (component.SplitContinuesStep and
// component.MergeContinuesStep). A MERGER or MIX history that tokens still
// in flight upstream leave unshaped fails that check; the frozen
// incarnations then thaw, and the reconfiguration retries once another
// token has been processed.
//
// The paper's frozen component stores each token that reaches it and
// forwards it once the reconfiguration is done. Here the injector drives
// every token and already holds it, so a frozen component refuses the token
// instead and records nothing; the injector re-resolves the token once the
// topology snapshot it resolved against has been replaced, by a commit or
// by a thaw. Inject and InjectBatch run one routing loop, which does this
// for both: Inject is a batch of one token, sending a single-token arrive
// at each component visit where a batch sends one group arrive.
//
// Every cross-component interaction is a message on an internal/transport
// fabric: token hops are "arrive" RPCs, and the freeze protocol's freeze /
// total / thaw exchanges are control RPCs. On the default ideal in-memory
// fabric this is exactly as deterministic as direct calls; built over
// transport.Faulty, every one of those messages can be delayed, lost,
// duplicated or reordered, and the retry + at-most-once layer must keep
// counting exact (experiment E24).
//
// A component is named by its path in T_w, as in the paper's DHT (Section
// 3): a path binds its one address, "c:<path>", the first time it becomes
// live. The endpoint serves whichever incarnation the current topology
// snapshot holds at the path and answers arrives with StatusDead while none
// does; its one dedup table answers a straggling retry whichever
// incarnation executed the original, which keeps effects exactly-once
// across reconfigurations. Refused tokens re-resolve against the current
// cut: descending through input maps after a split, ascending through the
// entry-child inverse after a merge.
//
// Compared to internal/core (the metered structural simulator), this
// package trades instrumentation for real concurrency; internal/core
// validates the paper's quantitative claims, this package validates the
// protocol's safety under interleavings (including with -race) and under
// injected network faults.
package dist

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/balancer"
	"repro/internal/component"
	"repro/internal/cutnet"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// compState is the lifecycle of a component; a replaced one stays frozen.
type compState uint8

const (
	stateActive compState = iota + 1
	stateFrozen
)

// The message kinds and payload types on the component endpoints are owned
// by internal/wire (kindArrive = wire.KindArrive and so on): every body
// dist sends or serves is a wire codec type, so the same protocol runs
// unchanged over the in-memory switch (bodies pass by value) and over
// tcpnet (bodies pass through the binary codec).
const (
	kindArrive      = wire.KindArrive      // token delivery to an input wire
	kindGroupArrive = wire.KindGroupArrive // batched token delivery, one RPC per component visit
	kindFreeze      = wire.KindFreeze      // control: refuse tokens, snapshot state
	kindTotal       = wire.KindTotal       // control: report the processed-token total
	kindThaw        = wire.KindThaw        // control: reactivate an abandoned freeze
)

// injector is the From address of every token RPC, as "ctl" is of every
// control RPC. Replies return on the call itself, so no token needs an
// endpoint of its own.
const injector transport.Addr = "inj"

// comp is a live component incarnation plus its protocol state.
type comp struct {
	c    tree.Component
	addr transport.Addr

	// resProcessed[out] is the pre-boxed reply for tokens processed from
	// output wire out on. Both arrive kinds share it: the arrive RPC is the
	// hottest message in the system, and returning a shared immutable boxed
	// value instead of boxing a fresh reply per visit removes one
	// allocation per token per component.
	resProcessed []any

	mu      sync.Mutex
	state   compState
	total   uint64
	arrived []uint64 // cumulative processed tokens per input wire
}

// topology is one published snapshot: an immutable path→component map and
// the channel that publish closes when it installs the next snapshot.
type topology struct {
	comps   map[tree.Path]*comp
	changed chan struct{}
}

// Cluster is a counting network under the asynchronous engine.
type Cluster struct {
	w  int
	tr transport.Transport
	rc *transport.Client

	// bound holds the paths that have an endpoint. Only New and the
	// reconfigurations (serialized by reconfig) bind, so it needs no lock.
	bound map[tree.Path]bool

	// Observability handles (nil when uninstrumented). Instrument and
	// Trace must be called before traffic or reconfigurations start; the
	// handles are then read-only for the cluster's lifetime.
	tracer   *obs.Tracer
	reg      *obs.Registry
	hTok     *obs.Hist // per-token injection-to-exit seconds
	hHop     *obs.Hist // per-hop arrive RPC seconds
	hRefused *obs.Hist // refused token's wait for the topology to change
	hDrain   *obs.Hist // merge phase-2 drain-wait seconds
	hSplit   *obs.Hist // split reconfiguration seconds
	hMerge   *obs.Hist // merge reconfiguration seconds

	// drainCh wakes a reconfiguration waiting for tokens to be processed;
	// any arrive that processes a token signals it (capacity 1, lossy
	// send): the waiter re-checks on every wakeup, so a coalesced or stale
	// signal costs one extra check, never a missed one.
	drainCh chan struct{}

	// groupLimit caps how many tokens one wire.GroupArrive RPC carries in
	// InjectBatch. Priority: an explicit SetGroupLimit wins; otherwise the
	// adapt controller's live recommendation (when UseAdapt installed one);
	// otherwise unlimited (one RPC per component visit, however large).
	groupLimit atomic.Int64
	adapt      *adapt.Controller

	// topo is the epoch-snapshot topology, published via atomic pointer.
	// Tokens resolve against whatever snapshot is current when they look —
	// no read lock, no blocking on an in-flight Split/Merge.
	// Reconfigurations (serialized by reconfig) publish replacements; a
	// refused token waits on its snapshot's changed channel and re-resolves
	// against the next one.
	topo atomic.Pointer[topology]

	out      []atomic.Uint64 // per-output-wire emission counters
	injected []atomic.Uint64 // per-input-wire injection counters

	reconfig sync.Mutex // serializes Split/Merge against each other only
}

// New creates a cluster implementing BITONIC[w] with the given cut,
// configured by opts. With none it runs over an ideal (reliable,
// zero-latency) in-memory fabric with default retries and no
// observability.
func New(w int, cut tree.Cut, opts ...Option) (*Cluster, error) {
	if err := cut.Validate(w); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	tr := o.tr
	if tr == nil {
		tr = transport.NewMem()
	}
	// The retry client's correctness contract is at-most-once delivery: a
	// reply that misses the retry deadline triggers a re-send, and without
	// receiver-side dedup the re-executed handler double-counts the token
	// (or re-freezes a component), permanently breaking the conservation
	// invariant merges drain on. Only fabrics that can actually time out a
	// delivered call need this — the ideal in-memory switch runs handlers
	// inline and never retries, so taxing it with dedup would be waste.
	if d, ok := tr.(transport.Redeliverer); ok && d.CanRedeliver() {
		d.EnableDedup()
	}
	cl := &Cluster{
		w:        w,
		tr:       tr,
		rc:       transport.NewClient(tr, o.retry),
		bound:    make(map[tree.Path]bool, len(cut)),
		drainCh:  make(chan struct{}, 1),
		out:      make([]atomic.Uint64, w),
		injected: make([]atomic.Uint64, w),
	}
	comps, err := cut.Components(w)
	if err != nil {
		return nil, err
	}
	m := make(map[tree.Path]*comp, len(cut))
	for _, c := range comps {
		cm := &comp{c: c, state: stateActive, arrived: make([]uint64, c.Width)}
		if err := cl.bind(cm); err != nil {
			return nil, err
		}
		m[c.Path] = cm
	}
	cl.topo.Store(&topology{comps: m, changed: make(chan struct{})})
	// Observability wiring in dependency order: registry first so the
	// tracer can register as a trace source on it.
	if o.reg != nil {
		cl.Instrument(o.reg)
	}
	if o.traceEvery > 0 {
		cl.Trace(o.traceEvery, o.traceRetain)
	}
	if o.adapt != nil {
		cl.UseAdapt(o.adapt)
	}
	return cl, nil
}

// NewRootOnly creates a cluster whose network is a single root component.
func NewRootOnly(w int) (*Cluster, error) {
	return New(w, tree.RootCut())
}

// bind readies a fresh incarnation and binds its path's endpoint the first
// time the path becomes live. The endpoint outlives every incarnation and
// serves whichever one the current snapshot holds at the path.
func (cl *Cluster) bind(cm *comp) error {
	p := cm.c.Path
	cm.addr = transport.Addr("c:" + p)
	cm.resProcessed = make([]any, cm.c.Width)
	for out := range cm.resProcessed {
		cm.resProcessed[out] = wire.ArriveRes{Status: wire.StatusProcessed, Out: out}
	}
	if cl.bound[p] {
		return nil
	}
	cl.bound[p] = true
	return cl.tr.Bind(cm.addr, func(req transport.Request) (any, error) {
		return cl.compRPC(cl.topo.Load().comps[p], req)
	})
}

// Pre-boxed arrive replies for the outcomes that carry no output wire.
var (
	resDead   any = wire.ArriveRes{Status: wire.StatusDead}
	resFrozen any = wire.ArriveRes{Status: wire.StatusFrozen}
)

// compRPC serves one component endpoint for its live incarnation cm, nil
// when no incarnation holds the path.
func (cl *Cluster) compRPC(cm *comp, req transport.Request) (any, error) {
	if cm == nil {
		if req.Kind == kindArrive || req.Kind == kindGroupArrive {
			return resDead, nil
		}
		return nil, fmt.Errorf("dist: %s: no live component at %q", req.Kind, req.To)
	}
	switch req.Kind {
	case kindArrive, kindGroupArrive:
		// A group arrive is the batched hop: one RPC delivers a whole
		// group of tokens to this component. Per-output-wire counts depend
		// only on how many tokens arrived, not on their interleaving with
		// other senders, so a group visit is count-for-count identical to
		// the same tokens arriving one by one.
		var wires []int
		switch b := req.Body.(type) {
		case wire.Arrive:
			wires = []int{b.Wire}
		case wire.GroupArrive:
			wires = b.Wires
		default:
			return nil, fmt.Errorf("dist: %s body %T", req.Kind, req.Body)
		}
		if len(wires) == 0 {
			return nil, fmt.Errorf("dist: empty group arrive at %v", cm.c)
		}
		for _, w := range wires {
			if w < 0 || w >= cm.c.Width {
				return nil, fmt.Errorf("dist: arrive wire %d out of range [0,%d)", w, cm.c.Width)
			}
		}
		return cl.arrive(cm, wires), nil
	case kindFreeze:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		cm.state = stateFrozen
		return wire.FreezeRes{Total: cm.total, Processed: slices.Clone(cm.arrived)}, nil
	case kindTotal:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		return cm.total, nil
	case kindThaw:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		cm.state = stateActive
		return nil, nil
	default:
		return nil, fmt.Errorf("dist: unknown RPC kind %q", req.Kind)
	}
}

// arrive routes tokens arriving on wires through cm in arrival order under
// one lock acquisition. Processed, the reply's Out is the first token's
// output wire, and token i leaves on (Out+i) mod the component's width. A
// frozen incarnation refuses the whole group and records nothing, so a
// frozen component's arrival history is exactly what it processed.
func (cl *Cluster) arrive(cm *comp, wires []int) any {
	cm.mu.Lock()
	if cm.state == stateFrozen {
		cm.mu.Unlock()
		return resFrozen
	}
	first := int(cm.total % uint64(cm.c.Width))
	for _, w := range wires {
		cm.arrived[w]++
	}
	cm.total += uint64(len(wires))
	cm.mu.Unlock()
	cl.signalDrain()
	return cm.resProcessed[first]
}

// publish installs a new topology snapshot, then closes the old one's
// changed channel so that the tokens refused under it re-resolve. mutate
// edits a clone of the component map; nil republishes the same map, which
// is how an abandoned reconfiguration wakes the tokens it refused. Only
// reconfigurations call it (serialized by reconfig), so clone-and-swap
// cannot lose concurrent updates.
func (cl *Cluster) publish(mutate func(map[tree.Path]*comp)) {
	old := cl.topo.Load()
	next := &topology{comps: old.comps, changed: make(chan struct{})}
	if mutate != nil {
		next.comps = maps.Clone(old.comps)
		mutate(next.comps)
	}
	cl.topo.Store(next)
	close(old.changed)
}

// signalDrain wakes a merge waiting on the conservation invariant.
func (cl *Cluster) signalDrain() {
	select {
	case cl.drainCh <- struct{}{}:
	default:
	}
}

// Width returns the network width.
func (cl *Cluster) Width() int { return cl.w }

// Size returns the number of live components.
func (cl *Cluster) Size() int {
	return len(cl.topo.Load().comps)
}

// Cut returns the current cut.
func (cl *Cluster) Cut() tree.Cut {
	comps := cl.topo.Load().comps
	cut := make(tree.Cut, len(comps))
	for p := range comps {
		cut[p] = true
	}
	return cut
}

// NetStats returns the fabric's per-message counters and the reliability
// client's call/retry counters.
func (cl *Cluster) NetStats() (transport.Stats, transport.ClientStats) {
	return cl.tr.Stats(), cl.rc.Stats()
}

// Instrument routes the engine's latency distributions — per-token and
// per-hop seconds, refused-token and merge-drain waits, reconfiguration
// timing — into reg, along with the reliability client's RTT and retry
// distributions. Call it before issuing traffic; the handles are read
// without synchronization afterwards.
func (cl *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl.hTok = reg.Histogram("dist.token.seconds", 0, 0.05, 500)
	cl.hHop = reg.Histogram("dist.hop.seconds", 0, 0.02, 400)
	cl.hRefused = reg.Histogram("dist.refused.wait.seconds", 0, 0.05, 500)
	cl.hDrain = reg.Histogram("dist.merge.drain.seconds", 0, 0.05, 500)
	cl.hSplit = reg.Histogram("dist.split.seconds", 0, 0.05, 500)
	cl.hMerge = reg.Histogram("dist.merge.seconds", 0, 0.05, 500)
	cl.rc.Instrument(reg)
	cl.reg = reg
	if cl.tracer != nil {
		reg.AddTraceSource(cl.tracer.Spans)
	}
}

// Trace enables per-token span sampling: one token in every is traced, and
// the last retain finished spans are kept (retain <= 0 means 64). Call it
// once, before issuing traffic. When the cluster is (or later becomes)
// instrumented, the tracer's spans are registered as a trace source on the
// registry, so /debug/acn/trace exports them as Perfetto trace events.
func (cl *Cluster) Trace(every, retain int) *obs.Tracer {
	cl.tracer = obs.NewTracer(every, retain)
	if cl.reg != nil {
		cl.reg.AddTraceSource(cl.tracer.Spans)
	}
	return cl.tracer
}

// Tracer returns the span sampler, or nil when tracing is off.
func (cl *Cluster) Tracer() *obs.Tracer { return cl.tracer }

// InstrumentRPC installs server-side RPC observation — per-kind handler
// latency histograms, child spans stitched to wire-propagated trace
// contexts, slow-RPC log and flight recorder — on the cluster's fabric.
// Returns false when the fabric cannot observe dispatch (only the
// in-memory Net, tcpnet.Net and Faulty wrappers over them can).
func (cl *Cluster) InstrumentRPC(o *obs.RPCObs) bool {
	ri, ok := cl.tr.(transport.RPCInstrumenter)
	if ok {
		ri.InstrumentRPC(o)
	}
	return ok
}

// SetGroupLimit caps the number of tokens one group arrive RPC may carry
// in InjectBatch. An explicit limit always wins over an installed adapt
// controller; 0 removes the cap (restoring controller or unlimited
// sizing). Negative values are rejected with an *adapt.SizeError. Safe to
// call while batches are in flight: each send-round reads the limit once.
func (cl *Cluster) SetGroupLimit(n int) error {
	if n < 0 {
		return &adapt.SizeError{Op: "dist: SetGroupLimit", Size: n}
	}
	cl.groupLimit.Store(int64(n))
	return nil
}

// UseAdapt installs a batch-size controller: InjectBatch consults its
// live recommendation when splitting a component visit into group arrive
// RPCs (unless an explicit SetGroupLimit overrides it). Install before
// traffic starts, like Instrument and Trace; pass nil to detach.
func (cl *Cluster) UseAdapt(c *adapt.Controller) { cl.adapt = c }

// groupCap resolves the current per-RPC token cap for one send round:
// explicit limit first, controller recommendation second, 0 = unlimited.
func (cl *Cluster) groupCap() int {
	if n := cl.groupLimit.Load(); n > 0 {
		return int(n)
	}
	if cl.adapt != nil {
		if n := cl.adapt.Size(); n > 0 {
			return n
		}
	}
	return 0
}

// Inject routes one token in from network input wire in, concurrently with
// any other tokens and any reconfiguration, and returns the output wire. It
// is the routing loop run on a batch of one: every component visit is one
// wire.Arrive RPC, and a sampled token records a "token" span.
func (cl *Cluster) Inject(in int) (int, error) {
	ins, outs := [1]int{in}, [1]int{}
	if err := cl.inject(ins[:], outs[:], false); err != nil {
		return 0, err
	}
	return outs[0], nil
}

// InjectBatch routes len(ins) tokens as a group: at every round, tokens
// sitting at the same live component are delivered together in ONE group
// arrive RPC (wire.GroupArrive) instead of one RPC each — on a k-component
// cut a batch costs one RPC per component visit, not one per token per hop.
// When a group-size cap is active (SetGroupLimit, or an adapt controller
// installed with UseAdapt), a visit by more tokens than the cap is split
// into ceil(n/cap) consecutive RPCs with identical counting output.
// The counting output is the same as injecting the tokens one at a time
// with Inject: a component's per-output-wire counts depend only on how
// many tokens arrived on each input wire, never on their arrival
// interleaving, so delivering a group in one message is count-for-count
// the same as delivering it one message at a time.
//
// A group that a frozen component refuses parks on the channel of the
// snapshot it was resolved against while its batchmates keep routing, and
// re-enters the round loop once that snapshot has been replaced. Group
// routing therefore reorders token *completion* within the batch, but
// per-wire counts — the network's observable output — are unaffected. It
// returns the output wire of each token; a sampled batch records one
// "batch" span.
func (cl *Cluster) InjectBatch(ins []int) ([]int, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	outs := make([]int, len(ins))
	if err := cl.inject(ins, outs, true); err != nil {
		return nil, err
	}
	return outs, nil
}

// group is one round's tokens headed for the same live component: the
// batch indexes of the tokens and the input wires they arrive on.
type group struct {
	cm    *comp
	idxs  []int
	wires []int
}

// parkedGroup is a refused group waiting for the snapshot it was resolved
// against to be replaced.
type parkedGroup struct {
	changed <-chan struct{}
	idxs    []int
}

// injectState is the reusable scratch of one inject call. Pooled so a warm
// call allocates no routing state: the slices keep their capacity, and a
// round reuses the previous rounds' groups with their buffers. None of it
// goes into a message body: a fabric may still read a body after its call
// returned (a delayed duplicate), so bodies never share reused memory.
type injectState struct {
	pos    []nextHop // pos[i] is token i's current network position
	active []int     // tokens routable this round
	groups []group   // this round's groups, in first-seen order
	parked []parkedGroup
}

var injectPool = sync.Pool{New: func() any { return new(injectState) }}

// groupFor returns this round's group headed for cm, opening one on first
// sight. A round has few groups, so a linear scan beats a map.
func (st *injectState) groupFor(cm *comp) *group {
	for i := range st.groups {
		if st.groups[i].cm == cm {
			return &st.groups[i]
		}
	}
	n := len(st.groups)
	st.groups = slices.Grow(st.groups, 1)[:n+1]
	g := &st.groups[n]
	g.cm, g.idxs, g.wires = cm, g.idxs[:0], g.wires[:0]
	return g
}

// inject is the one routing loop behind Inject and InjectBatch: it counts
// the tokens ins in, routes them to their exits and writes token i's
// output wire to outs[i]. Each round groups the routable tokens by the
// live component covering their position in one snapshot and delivers
// each group in arrive RPCs: one wire.GroupArrive per chunk when batch is
// set, one wire.Arrive for Inject's single token. A refused group parks
// and re-resolves from the refusing component once the snapshot it
// resolved against has been replaced: at once when its path is no longer
// live, after the commit or thaw when its incarnation is frozen.
func (cl *Cluster) inject(ins, outs []int, batch bool) error {
	if err := cl.checkInputs(ins); err != nil {
		return err
	}
	// One sampling decision per call: a sampled call's root span carries
	// every RPC it sends, and its context rides each arrive so receiving
	// fabrics stitch server-side spans to this one timeline.
	kind, span := kindArrive, "token"
	if batch {
		kind, span = kindGroupArrive, "batch"
	}
	sp := cl.tracer.Start(span)
	defer sp.Finish()
	if batch {
		sp.Event("inject", "", int64(len(ins)))
	}
	var begin time.Time
	if cl.hTok != nil {
		begin = time.Now()
	}
	// One injected-counter add per run of equal wires, all counted before
	// the tokens route.
	for i := 0; i < len(ins); {
		j := runEnd(ins, i)
		cl.injected[ins[i]].Add(uint64(j - i))
		i = j
	}

	st := injectPool.Get().(*injectState)
	defer injectPool.Put(st)
	st.pos, st.active, st.groups, st.parked = st.pos[:0], st.active[:0], st.groups[:0], st.parked[:0]
	root := tree.MustRoot(cl.w)
	for i, in := range ins {
		st.pos = append(st.pos, nextHop{c: root, wire: in})
		st.active = append(st.active, i)
	}
	// Groups park in round order, so parked[0] holds the oldest snapshot,
	// whose channel closes first.
	for len(st.active) > 0 || len(st.parked) > 0 {
		if len(st.active) == 0 {
			var wait time.Time
			if cl.hRefused != nil {
				wait = time.Now()
			}
			<-st.parked[0].changed
			cl.hRefused.Since(wait)
		}
		waiting := st.parked[:0]
		for _, pg := range st.parked {
			select {
			case <-pg.changed:
				st.active = append(st.active, pg.idxs...)
			default:
				waiting = append(waiting, pg)
			}
		}
		st.parked = waiting

		topo := cl.topo.Load()
		// The round's group bodies share one fresh buffer, filled in send
		// order; it has room for every routable token, so it never moves.
		var sent []int
		if batch {
			sent = make([]int, 0, len(st.active))
		}
		st.groups = st.groups[:0]
		for _, idx := range st.active {
			cm, rwire, err := cl.findLive(topo, st.pos[idx].c, st.pos[idx].wire)
			if err != nil {
				return err
			}
			g := st.groupFor(cm)
			g.idxs = append(g.idxs, idx)
			g.wires = append(g.wires, rwire)
		}
		st.active = st.active[:0]
		// One cap read per round: the adapt controller (or an explicit
		// SetGroupLimit) bounds how many tokens each group arrive RPC
		// carries, so a component visit by more tokens than the cap costs
		// ceil(len/cap) RPCs. The chunks are count-equivalent to the whole
		// group (per-wire counts depend only on arrival counts), so the
		// cap changes RPC accounting and wire pressure, never outputs.
		limit := cl.groupCap()
		for gi := range st.groups {
			g := &st.groups[gi]
			c := g.cm.c
			for off := 0; off < len(g.idxs); {
				end := len(g.idxs)
				if limit > 0 && end-off > limit {
					end = off + limit
				}
				idxs, wires := g.idxs[off:end], g.wires[off:end]
				off = end
				var body any
				if batch {
					n := len(sent)
					sent = append(sent, wires...)
					body = wire.GroupArrive{Wires: sent[n:]}
				} else {
					body = wire.Arrive{Wire: wires[0]}
				}
				var hopStart time.Time
				if cl.hHop != nil {
					hopStart = time.Now()
				}
				reply, err := cl.rc.CallSpan(injector, g.cm.addr, kind, body, sp)
				if err != nil {
					return fmt.Errorf("dist: %s at %v: %w", kind, c, err)
				}
				cl.hHop.Since(hopStart)
				res, ok := reply.(wire.ArriveRes)
				if !ok {
					return fmt.Errorf("dist: %s reply %T", kind, reply)
				}
				switch res.Status {
				case wire.StatusDead, wire.StatusFrozen:
					if sp != nil {
						v := int64(len(idxs))
						if !batch {
							v = int64(wires[0])
						}
						sp.Event(refusedEvent(res.Status), string(c.Path), v)
					}
					for k, idx := range idxs {
						st.pos[idx] = nextHop{c: c, wire: wires[k]}
					}
					st.parked = append(st.parked, parkedGroup{changed: topo.changed, idxs: slices.Clone(idxs)})
				case wire.StatusProcessed:
					if sp != nil {
						if batch {
							sp.Event("group", string(c.Path), int64(len(idxs)))
						} else {
							sp.Event("hop", string(c.Path), int64(res.Out))
						}
					}
					for k, idx := range idxs {
						next, exited, netOut, err := cl.resolveNext(c, (res.Out+k)%c.Width)
						if err != nil {
							return err
						}
						if !exited {
							st.pos[idx] = next
							st.active = append(st.active, idx)
							continue
						}
						cl.out[netOut].Add(1)
						outs[idx] = netOut
						cl.hTok.Since(begin)
						if sp != nil && !batch {
							sp.Event("exit", "", int64(netOut))
						}
					}
				default:
					return fmt.Errorf("dist: %s status %d", kind, res.Status)
				}
			}
		}
	}
	return nil
}

// checkInputs rejects a batch with any input wire out of range, before
// any of its tokens is counted.
func (cl *Cluster) checkInputs(ins []int) error {
	for _, in := range ins {
		if in < 0 || in >= cl.w {
			return fmt.Errorf("dist: input wire %d out of range [0,%d)", in, cl.w)
		}
	}
	return nil
}

// runEnd returns the end of the run of equal wires that starts at ins[i].
func runEnd(ins []int, i int) int {
	j := i
	for j < len(ins) && ins[j] == ins[i] {
		j++
	}
	return j
}

// refusedEvent names the span event of a refused delivery.
func refusedEvent(s wire.Status) string {
	if s == wire.StatusDead {
		return "dead"
	}
	return "frozen"
}

// findLive resolves the live component of snapshot topo covering input
// wire wire of c: c itself, a descendant (after a split: descend through
// input maps), or an ancestor (after a merge: ascend through the
// entry-child inverse). This is local address resolution — the analogue
// of core's cached out-neighbor directory — not a message.
func (cl *Cluster) findLive(topo *topology, c tree.Component, wire int) (*comp, int, error) {
	var cm *comp
	_, w, err := tree.AHS94.Enter(c, wire, func(x tree.Component) bool {
		cm = topo.comps[x.Path]
		return cm != nil
	})
	if cm != nil {
		return cm, w, nil
	}
	if !errors.Is(err, tree.ErrUncovered) {
		return nil, 0, err
	}
	// Ascend: valid only along entry children (post-merge stragglers).
	cur, w := c, wire
	for {
		parent, idx, ok := cur.Parent(cl.w)
		if !ok {
			return nil, 0, fmt.Errorf("dist: no live component covers %v wire %d", c, wire)
		}
		pin, isEntry := tree.InvChildInput(parent.Kind, parent.Width, idx, w)
		if !isEntry {
			return nil, 0, fmt.Errorf("dist: token stranded at non-entry %v wire %d", c, wire)
		}
		cur, w = parent, pin
		if cm := topo.comps[cur.Path]; cm != nil {
			return cm, w, nil
		}
	}
}

// nextHop is a token's position: the component and input wire it is
// headed for, resolved to a live component when it is delivered.
type nextHop struct {
	c    tree.Component
	wire int
}

// resolveNext computes where a token leaving component c on output wire o
// goes: the coarsest component it enters (findLive descends as needed
// when the token lands), or the network output wire it exits on.
func (cl *Cluster) resolveNext(c tree.Component, o int) (nextHop, bool, int, error) {
	next, wire, exited, err := tree.AHS94.Leave(cl.w, c, o)
	if err != nil || exited {
		return nextHop{}, exited, wire, err
	}
	return nextHop{c: next, wire: wire}, false, 0, nil
}

// OutCounts returns the per-output-wire emission counts.
func (cl *Cluster) OutCounts() balancer.Seq {
	s := make(balancer.Seq, cl.w)
	for i := range cl.out {
		s[i] = int64(cl.out[i].Load())
	}
	return s
}

// InCounts returns the per-input-wire injection counts.
func (cl *Cluster) InCounts() balancer.Seq {
	s := make(balancer.Seq, cl.w)
	for i := range cl.injected {
		s[i] = int64(cl.injected[i].Load())
	}
	return s
}

// CheckStep verifies the quiescent step property and token conservation.
// The caller must ensure no Inject is in flight.
func (cl *Cluster) CheckStep() error {
	out := cl.OutCounts()
	if !out.HasStep() {
		return fmt.Errorf("dist: output %v violates the step property", out)
	}
	if got, want := out.Total(), cl.InCounts().Total(); got != want {
		return fmt.Errorf("dist: %d tokens out, %d in", got, want)
	}
	return nil
}

// ctl issues one control RPC from the reconfiguration coordinator. The
// span (nil when the reconfiguration is unsampled) propagates so the
// receiving fabric's freeze/total/thaw spans stitch to the
// reconfiguration's trace. Reconfigurations are serialized, so cm is the
// incarnation its path's endpoint serves.
func (cl *Cluster) ctl(cm *comp, kind string, sp *obs.Span) (any, error) {
	reply, err := cl.rc.CallSpan("ctl", cm.addr, kind, nil, sp)
	if err != nil {
		return nil, fmt.Errorf("dist: %s %v: %w", kind, cm.c, err)
	}
	return reply, nil
}

// Split replaces the component at path p by its children while traffic
// flows: freeze (a control RPC returning the frozen per-wire history),
// initialize the children from it and publish them in its place. A
// history on which the children would not continue the component's output
// is abandoned and retried (see abandon).
func (cl *Cluster) Split(p tree.Path) error {
	cl.reconfig.Lock()
	defer cl.reconfig.Unlock()
	var begin time.Time
	if cl.hSplit != nil {
		begin = time.Now()
	}
	sp := cl.tracer.Start("split")
	defer sp.Finish()
	sp.Event("target", string(p), 0)

	cm := cl.topo.Load().comps[p]
	if cm == nil {
		return fmt.Errorf("dist: split: no live component at %q", p)
	}
	if cm.c.IsLeaf() {
		return fmt.Errorf("dist: split: %v is an individual balancer", cm.c)
	}
	cm.mu.Lock()
	active := cm.state == stateActive
	cm.mu.Unlock()
	if !active {
		return fmt.Errorf("dist: split: %v is not active", cm.c)
	}

	// Freeze and snapshot the processed-per-wire history.
	var snap wire.FreezeRes
	for {
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return err
		}
		snap = reply.(wire.FreezeRes)
		if sp != nil {
			sp.Event("freeze", string(p), int64(snap.Total))
		}
		ok, err := component.SplitContinuesStep(cm.c, snap.Processed)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if err := cl.abandon(sp, cm); err != nil {
			return err
		}
	}

	totals, flows, err := component.SplitFlows(cm.c, snap.Processed)
	if err != nil {
		return err
	}
	children := cm.c.Children()
	newComps := make([]*comp, len(children))
	for i, child := range children {
		newComps[i] = &comp{c: child, state: stateActive, total: totals[i], arrived: flows[i]}
		if err := cl.bind(newComps[i]); err != nil {
			return err
		}
	}

	// Publish a fresh snapshot with the children in place of the parent.
	// Tokens the frozen parent refused re-resolve and descend into the
	// children; tokens resolving from here on see the children.
	cl.publish(func(m map[tree.Path]*comp) {
		delete(m, p)
		for i, child := range children {
			m[child.Path] = newComps[i]
		}
	})
	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	cl.hSplit.Since(begin)
	return nil
}

// abandon backs out of a split or merge whose result would not continue
// the step sequence: it thaws the frozen incarnations cms, publishes so
// that the tokens they refused re-resolve, and waits until a token has
// been processed. Tokens still in flight toward the component are what
// leave its history unshaped, so the history cannot have changed before
// one of them is processed; a wakeup from an unrelated token costs one
// extra freeze. The stale wakeup is dropped before the thaw, so the wait
// ends only on a token processed after it.
func (cl *Cluster) abandon(sp *obs.Span, cms ...*comp) error {
	select {
	case <-cl.drainCh:
	default:
	}
	for _, cm := range cms {
		if _, err := cl.ctl(cm, kindThaw, sp); err != nil {
			return err
		}
		if sp != nil {
			sp.Event("thaw", string(cm.c.Path), 0)
		}
	}
	cl.publish(nil)
	<-cl.drainCh
	return nil
}

// Merge reforms the component at p from its children while traffic flows,
// recursively merging children that are themselves split.
func (cl *Cluster) Merge(p tree.Path) error {
	cl.reconfig.Lock()
	defer cl.reconfig.Unlock()
	return cl.mergeLocked(p)
}

func (cl *Cluster) mergeLocked(p tree.Path) error {
	var begin time.Time
	if cl.hMerge != nil {
		begin = time.Now()
	}
	sp := cl.tracer.Start("merge")
	defer sp.Finish()
	sp.Event("target", string(p), 0)
	if cl.topo.Load().comps[p] != nil {
		return fmt.Errorf("dist: merge: %q is already live", p)
	}

	parent, err := tree.ComponentAt(cl.w, p)
	if err != nil {
		return err
	}
	if parent.IsLeaf() {
		return fmt.Errorf("dist: merge: %v has no children", parent)
	}
	children := parent.Children()

	// Recursively merge children that are split further.
	for _, child := range children {
		if cl.topo.Load().comps[child.Path] == nil {
			if err := cl.mergeLocked(child.Path); err != nil {
				return fmt.Errorf("dist: recursive merge of %v: %w", child, err)
			}
		}
	}
	cms := make([]*comp, len(children))
	for i, child := range children {
		cms[i] = cl.topo.Load().comps[child.Path]
	}
	for i, cm := range cms {
		if cm == nil {
			return fmt.Errorf("dist: merge: child %v missing", children[i])
		}
	}

	// The merged counter must continue the assembly's output; a frozen
	// assembly that has not emitted StepSeq(width, total) thaws and retries.
	var entrySnaps [2]wire.FreezeRes
	var totals []uint64
	for {
		entrySnaps, totals, err = cl.freezeAssembly(sp, parent, cms)
		if err != nil {
			return err
		}
		ok, err := component.MergeContinuesStep(parent, totals)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if err := cl.abandon(sp, cms...); err != nil {
			return err
		}
	}

	arrived := make([]uint64, parent.Width)
	for i, snap := range entrySnaps {
		for wire, cnt := range snap.Processed {
			pin, ok := tree.InvChildInput(parent.Kind, parent.Width, i, wire)
			if ok {
				arrived[pin] += cnt
			}
		}
	}
	total, err := component.MergeTotal(parent, totals)
	if err != nil {
		return err
	}
	merged := &comp{c: parent, state: stateActive, total: total, arrived: arrived}
	if err := cl.bind(merged); err != nil {
		return err
	}

	// Phase 4: publish a fresh snapshot with the parent in place of the
	// children. Tokens the frozen entry children refused re-resolve and
	// ascend into the merged parent.
	cl.publish(func(m map[tree.Path]*comp) {
		for _, child := range children {
			delete(m, child.Path)
		}
		m[p] = merged
	})
	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	cl.hMerge.Since(begin)
	return nil
}

// freezeAssembly runs merge phases 1-3 over the children cms of parent and
// returns the entry children's freeze snapshots and every child's final
// total.
func (cl *Cluster) freezeAssembly(sp *obs.Span, parent tree.Component, cms []*comp) (entrySnaps [2]wire.FreezeRes, totals []uint64, err error) {
	totals = make([]uint64, len(cms))
	// Phase 1: freeze the entry children; external arrivals are refused.
	// Their freeze snapshots are final: a frozen component's total and
	// processed history no longer change.
	for i, cm := range cms[:2] {
		cm.mu.Lock()
		active := cm.state == stateActive
		cm.mu.Unlock()
		if !active {
			return entrySnaps, nil, fmt.Errorf("dist: merge: entry child %v is not active", cm.c)
		}
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return entrySnaps, nil, err
		}
		entrySnaps[i] = reply.(wire.FreezeRes)
		totals[i] = entrySnaps[i].Total
		if sp != nil {
			sp.Event("freeze", string(cm.c.Path), int64(totals[i]))
		}
	}

	// Phase 2: wait for internal in-flight tokens to drain, detected by
	// the conservation invariant (all stages saw equally many tokens). The
	// totals are polled with control RPCs; between polls the coordinator
	// blocks on drainCh, which every processed token signals — no
	// busy-wait.
	var drainStart time.Time
	if cl.hDrain != nil {
		drainStart = time.Now()
	}
	for {
		for i, cm := range cms[2:] {
			reply, err := cl.ctl(cm, kindTotal, sp)
			if err != nil {
				return entrySnaps, nil, err
			}
			totals[2+i] = reply.(uint64)
		}
		if component.CheckConservation(parent, totals) == nil {
			break
		}
		// Conservation not yet reached, so a token is in flight inside the
		// assembly; its next arrive will signal. A stale or unrelated
		// signal just costs one extra poll.
		<-cl.drainCh
	}
	cl.hDrain.Since(drainStart)
	if sp != nil {
		sp.Event("drained", string(parent.Path), 0)
	}

	// Phase 3: freeze the remaining (now idle) children.
	for i, cm := range cms[2:] {
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return entrySnaps, nil, err
		}
		totals[2+i] = reply.(wire.FreezeRes).Total
	}
	return entrySnaps, totals, nil
}

// EffectiveWidth computes Definition 1.1 for the cluster's current cut.
func (cl *Cluster) EffectiveWidth() (int, error) {
	d, err := cutnet.New(cl.w, cl.Cut())
	if err != nil {
		return 0, err
	}
	return d.EffectiveWidth()
}

// EffectiveDepth computes Definition 1.2 for the cluster's current cut.
func (cl *Cluster) EffectiveDepth() (int, error) {
	d, err := cutnet.New(cl.w, cl.Cut())
	if err != nil {
		return 0, err
	}
	return d.EffectiveDepth()
}
