package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Endpoints is the receiving half every fabric shares: the table of bound
// handlers, the optional per-endpoint DedupTable, server-side RPC
// observation, and the delivered and dedup-hit counters. The in-memory
// Net and tcpnet.Net embed it and differ only in how a request reaches
// Dispatch. The zero value is an empty table with dedup off.
type Endpoints struct {
	mu    sync.RWMutex
	eps   map[Addr]*endpoint
	dedup bool

	delivered atomic.Uint64
	dedupHits atomic.Uint64

	// rpc observes server-side handler execution (nil when
	// uninstrumented); swapped atomically so InstrumentRPC on a live
	// fabric never races in-flight dispatches.
	rpc atomic.Pointer[obs.RPCObs]
}

// endpoint is one bound address. Its dedup table is installed atomically so
// EnableDedup on a live fabric never races in-flight dispatches: a dispatch
// either loads nil (executes directly, the pre-dedup semantic) or loads the
// table and dedups.
type endpoint struct {
	h Handler

	dedup atomic.Pointer[DedupTable] // nil until dedup is enabled
}

// EnableDedup implements Deduper: every current and future endpoint gets a
// bounded at-most-once call cache. Faulty and dist switch it on when
// retries can re-deliver a request; the ideal fabric leaves it off so
// reliable single-shot traffic costs no memory.
func (t *Endpoints) EnableDedup() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dedup = true
	for _, ep := range t.eps {
		// CAS so enabling twice never discards a table already holding
		// cached replies.
		ep.dedup.CompareAndSwap(nil, NewDedupTable(0))
	}
}

// Bind implements Transport.
func (t *Endpoints) Bind(a Addr, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", a)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.eps[a]; ok {
		return fmt.Errorf("transport: address %q already bound", a)
	}
	if t.eps == nil {
		t.eps = make(map[Addr]*endpoint)
	}
	ep := &endpoint{h: h}
	if t.dedup {
		ep.dedup.Store(NewDedupTable(0))
	}
	t.eps[a] = ep
	return nil
}

// Unbind implements Transport.
func (t *Endpoints) Unbind(a Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.eps, a)
}

// InstrumentRPC implements RPCInstrumenter: every handler execution is
// timed into per-kind latency histograms, and sampled requests get a child
// span stitched to the wire-propagated trace context. Passing nil
// uninstalls. Safe to call while traffic flows.
func (t *Endpoints) InstrumentRPC(o *obs.RPCObs) {
	t.rpc.Store(o)
}

// Dispatch runs req against the endpoint bound at req.To, through the
// endpoint's dedup table when dedup is on. bound is false when no endpoint
// is bound there; err is then nil and the handler did not run.
func (t *Endpoints) Dispatch(req Request) (reply any, err error, bound bool) {
	t.mu.RLock()
	ep := t.eps[req.To]
	t.mu.RUnlock()
	if ep == nil {
		return nil, nil, false
	}
	tbl := ep.dedup.Load()
	if tbl == nil {
		// No dedup: call the handler directly, without the closure the
		// dedup path needs, so the undeduped path does not allocate.
		reply, err = t.serve(ep, req)
		return reply, err, true
	}
	reply, err, hit := tbl.Do(req.ID, func() (any, error) { return t.serve(ep, req) })
	if hit {
		t.dedupHits.Add(1)
	}
	return reply, err, true
}

// serve runs the endpoint's handler, observed by the installed RPCObs (one
// atomic load when uninstrumented). The child span ends before Dispatch
// returns, so once a caller has its reply every server-side span of the
// call is already retained.
func (t *Endpoints) serve(ep *endpoint, req Request) (any, error) {
	t.delivered.Add(1)
	o := t.rpc.Load()
	if o == nil {
		return ep.h(req)
	}
	sp, start := o.Begin(req.Kind, req.Trace)
	reply, err := ep.h(req)
	o.End(req.Kind, string(req.To), sp, start, err)
	return reply, err
}

// Stats returns the receiving-side counters: Delivered and DedupHits.
func (t *Endpoints) Stats() Stats {
	return Stats{Delivered: t.delivered.Load(), DedupHits: t.dedupHits.Load()}
}

// DedupShardHits returns the per-stripe duplicate counts summed across all
// bound endpoints (index i is stripe i of every endpoint's table). The sum
// over the slice equals Stats().DedupHits; the spread across entries shows
// how well the shard hash distributes retried request IDs.
func (t *Endpoints) DedupShardHits() [DedupShards]uint64 {
	var hits [DedupShards]uint64
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ep := range t.eps {
		if tbl := ep.dedup.Load(); tbl != nil {
			sh := tbl.ShardHits()
			for i := range sh {
				hits[i] += sh[i]
			}
		}
	}
	return hits
}

// DedupEntries returns the number of cached calls across all bound
// endpoints — the quantity the dedup retirement bound keeps flat on
// long-lived endpoints.
func (t *Endpoints) DedupEntries() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, ep := range t.eps {
		if tbl := ep.dedup.Load(); tbl != nil {
			total += tbl.Len()
		}
	}
	return total
}
