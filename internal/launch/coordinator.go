package launch

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/balancer"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
)

// Result is the coordinator's merged view of a partitioned run.
type Result struct {
	// In and Out are the element-wise sums of every partition's per-wire
	// injection and emission counts — the global network counts.
	In, Out balancer.Seq
	// Conserved: total tokens out equals total tokens in, summed across
	// processes (the exactness gate).
	Conserved bool
	// StepOK: the summed output counts satisfy the step property.
	StepOK bool
	// CrossTraces counts trace IDs whose spans were retained by two or
	// more distinct processes — distributed traces that actually
	// stitched across the wire.
	CrossTraces int
	// RunMS is the slowest partition's injection wall-clock.
	RunMS float64
	// Merged folds every partition's registry snapshot into one.
	Merged obs.Snapshot
	// Parts carries each partition's raw report, in spec order.
	Parts []*Report
}

// TraceParts shapes the per-partition spans for
// obs.WriteTraceEventsParts: one Perfetto process row per partition.
func (r *Result) TraceParts() []obs.TracePart {
	parts := make([]obs.TracePart, len(r.Parts))
	for i, rep := range r.Parts {
		parts[i] = obs.TracePart{Name: rep.Name, Spans: rep.Spans}
	}
	return parts
}

// Coordinator drives a set of launched workers over the ctl protocol:
// wire the topology, run the workload, gather and merge reports, shut
// down. It owns its own fabric (no bound endpoints — pure client) and a
// request-ID space disjoint from every worker's.
type Coordinator struct {
	spec  *Spec
	addrs map[string]string // partition name -> listener host:port
	net   *tcpnet.Net
	rc    *transport.Client
}

// NewCoordinator connects a coordinator to workers whose listener
// addresses are known (from StartInProc or the acnnode readiness
// handshake). It validates that every partition has an address and
// installs the ctl routes.
func NewCoordinator(spec *Spec, addrs map[string]string) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	for _, p := range spec.Partitions {
		addr, ok := addrs[p.Name]
		if !ok {
			_ = tn.Close()
			return nil, fmt.Errorf("launch: no address for partition %q", p.Name)
		}
		if err := tn.Route(string(ctlAddr(p.Name)), addr); err != nil {
			_ = tn.Close()
			return nil, err
		}
	}
	// Control calls wrap whole workload phases, so the per-attempt
	// deadline is generous; a retry after a genuine timeout is safe —
	// worker fabrics dedup on request ID, so a re-sent "run" cannot
	// double-inject.
	rc := transport.NewClient(tn, transport.RetryConfig{
		Timeout:    120 * time.Second,
		MaxRetries: 1,
		Backoff:    10 * time.Millisecond,
		BackoffCap: 100 * time.Millisecond,
		IDBase:     coordIDBase,
	})
	return &Coordinator{spec: spec, addrs: addrs, net: tn, rc: rc}, nil
}

// Close releases the coordinator's fabric.
func (c *Coordinator) Close() error { return c.net.Close() }

// call sends one ctl command and decodes the reply; worker-side
// failures come back as errors.
func (c *Coordinator) call(name string, req *ctlReq) (*ctlRes, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	reply, err := c.rc.Call("ctl:coord", ctlAddr(name), wire.KindCtl, wire.Blob(b))
	if err != nil {
		return nil, fmt.Errorf("launch: ctl %q to %s: %w", req.Op, name, err)
	}
	blob, ok := reply.(wire.Blob)
	if !ok {
		return nil, fmt.Errorf("launch: ctl %q to %s: reply %T", req.Op, name, reply)
	}
	var res ctlRes
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("launch: ctl %q to %s: %w", req.Op, name, err)
	}
	if !res.OK {
		return nil, fmt.Errorf("launch: ctl %q to %s: %s", req.Op, name, res.Err)
	}
	return &res, nil
}

// broadcast sends the same command to every partition concurrently and
// collects the replies in spec order.
func (c *Coordinator) broadcast(mk func(p *Partition, idx int) *ctlReq) ([]*ctlRes, error) {
	n := len(c.spec.Partitions)
	results := make([]*ctlRes, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range c.spec.Partitions {
		p := &c.spec.Partitions[i]
		req := mk(p, i)
		if req == nil {
			continue
		}
		wg.Add(1)
		go func(i int, name string, req *ctlReq) {
			defer wg.Done()
			results[i], errs[i] = c.call(name, req)
		}(i, p.Name, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Ping verifies every worker's control endpoint answers.
func (c *Coordinator) Ping() error {
	_, err := c.broadcast(func(*Partition, int) *ctlReq { return &ctlReq{Op: "ping"} })
	return err
}

// Wire pushes the peer address map to every worker, which installs the
// cross-partition component and ctl routes.
func (c *Coordinator) Wire() error {
	_, err := c.broadcast(func(*Partition, int) *ctlReq {
		return &ctlReq{Op: "wire", Peers: c.addrs}
	})
	return err
}

// Run drives the spec's workload: the canonical arrival sequence is
// split into contiguous per-partition shares and every partition injects
// its share concurrently. Returns the slowest partition's injection
// wall-clock.
func (c *Coordinator) Run() (float64, error) {
	wl := c.spec.Workload.withDefaults()
	ins := make([]int, wl.Tokens)
	for i := range ins {
		ins[i] = (i * 2654435761) % c.spec.Width
	}
	n := len(c.spec.Partitions)
	share := (len(ins) + n - 1) / n
	results, err := c.broadcast(func(_ *Partition, idx int) *ctlReq {
		lo := idx * share
		hi := lo + share
		if hi > len(ins) {
			hi = len(ins)
		}
		if lo >= hi {
			return nil
		}
		return &ctlReq{Op: "run", Tokens: ins[lo:hi], Burst: wl.Burst, Senders: wl.Senders, Mode: wl.Mode}
	})
	if err != nil {
		return 0, err
	}
	var ms float64
	for _, r := range results {
		if r != nil && r.MS > ms {
			ms = r.MS
		}
	}
	return ms, nil
}

// Gather pulls every partition's report and merges them: summed per-wire
// counts with the conservation and step verdicts, one merged metrics
// snapshot, and the cross-process trace tally.
func (c *Coordinator) Gather() (*Result, error) {
	results, err := c.broadcast(func(*Partition, int) *ctlReq { return &ctlReq{Op: "report"} })
	if err != nil {
		return nil, err
	}
	res := &Result{
		In:  make(balancer.Seq, c.spec.Width),
		Out: make(balancer.Seq, c.spec.Width),
	}
	snaps := make([]obs.Snapshot, 0, len(results))
	traceOwners := map[uint64]map[string]bool{}
	for _, r := range results {
		if r == nil || r.Report == nil {
			return nil, fmt.Errorf("launch: report missing from a partition")
		}
		rep := r.Report
		if rep.Spans, err = c.spans(rep.Name); err != nil {
			return nil, err
		}
		res.Parts = append(res.Parts, rep)
		if len(rep.In) != c.spec.Width || len(rep.Out) != c.spec.Width {
			return nil, fmt.Errorf("launch: %s reported %d/%d wires, want %d",
				rep.Name, len(rep.In), len(rep.Out), c.spec.Width)
		}
		for i := range rep.In {
			res.In[i] += rep.In[i]
			res.Out[i] += rep.Out[i]
		}
		snaps = append(snaps, rep.Snapshot)
		for _, sp := range rep.Spans {
			if sp == nil {
				continue
			}
			if traceOwners[sp.TraceID] == nil {
				traceOwners[sp.TraceID] = map[string]bool{}
			}
			traceOwners[sp.TraceID][rep.Name] = true
		}
	}
	res.Conserved = res.In.Total() == res.Out.Total()
	res.StepOK = res.Out.HasStep()
	res.Merged = obs.MergeSnapshots(snaps...)
	for _, owners := range traceOwners {
		if len(owners) >= 2 {
			res.CrossTraces++
		}
	}
	return res, nil
}

// spanPage bounds one "spans" reply: 256 spans of JSON stay far inside a
// wire frame even with busy event lists.
const spanPage = 256

// spans pulls one partition's retained trace spans in bounded pages.
func (c *Coordinator) spans(name string) ([]*obs.Span, error) {
	var all []*obs.Span
	for off := 0; ; off += spanPage {
		r, err := c.call(name, &ctlReq{Op: "spans", Offset: off, Limit: spanPage})
		if err != nil {
			return nil, err
		}
		all = append(all, r.Spans...)
		if off+len(r.Spans) >= r.Total || len(r.Spans) == 0 {
			return all, nil
		}
	}
}

// Shutdown tells every worker to exit its Wait. Errors are returned but
// the caller may choose to tolerate them — a lost shutdown reply still
// usually means the worker got the command, and acnnode falls back to
// killing its child processes regardless.
func (c *Coordinator) Shutdown() error {
	_, err := c.broadcast(func(*Partition, int) *ctlReq { return &ctlReq{Op: "shutdown"} })
	return err
}

// StartInProc launches every partition of spec as an in-process worker —
// same fabrics, same routes, same control protocol over real loopback
// sockets, just sharing one OS process — plus a coordinator already
// wired to them. The caller drives the coordinator exactly as acnnode
// does and must Close the coordinator and each worker. Used by the -race
// conservation test and E32's in-process partitioned cells.
func StartInProc(spec *Spec) (*Coordinator, []*Worker, error) {
	workers := make([]*Worker, 0, len(spec.Partitions))
	addrs := map[string]string{}
	fail := func(err error) (*Coordinator, []*Worker, error) {
		for _, w := range workers {
			_ = w.Close()
		}
		return nil, nil, err
	}
	for _, p := range spec.Partitions {
		w, err := StartWorker(spec, p.Name)
		if err != nil {
			return fail(err)
		}
		workers = append(workers, w)
		addrs[p.Name] = w.Addr()
	}
	coord, err := NewCoordinator(spec, addrs)
	if err != nil {
		return fail(err)
	}
	if err := coord.Wire(); err != nil {
		_ = coord.Close()
		return fail(err)
	}
	return coord, workers, nil
}
