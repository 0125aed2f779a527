package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Span ops: what a span times. The first five are root spans, recorded
// by the goroutine that made the call; the last two are recorded by the
// traced fabric and linked by Request.ID.
const (
	opCall       uint8 = iota // one client Inject or InjectBatch call
	opSplit                   // dist Cluster.Split
	opMerge                   // dist Cluster.Merge
	opMembership              // core AddNodes(4), or four RemoveRandomNode calls
	opMaintain                // core MaintainToFixpoint
	opSend                    // one transport Send attempt
	opHandle                  // one execution of a bound handler
)

// msgKinds are the dist message kinds whose sends and handlers the traced
// run breaks out. Any other kind is recorded as kindOther.
var msgKinds = []string{
	wire.KindArrive, wire.KindGroupArrive, wire.KindFreeze,
	wire.KindTotal, wire.KindKill, wire.KindResume,
}

var kindOther = uint8(len(msgKinds))

func kindIndex(kind string) uint8 {
	for i, k := range msgKinds {
		if k == kind {
			return uint8(i)
		}
	}
	return kindOther
}

// tokenPath reports whether a kind is sent by a client call itself: the
// per-hop arrive and group arrive RPCs. Control kinds are sent by Split,
// Merge, or the kill handler's resume goroutines.
func tokenPath(kind uint8) bool {
	return kind == kindIndex(wire.KindArrive) || kind == kindIndex(wire.KindGroupArrive)
}

// span is one timed interval. Times are nanoseconds since the recorder's
// base on the monotonic clock; the whole run is one process, so client
// and server spans share that clock.
type span struct {
	start, end int64
	id         uint64 // Request.ID of a send or handle; the recording slot of a root span
	op, kind   uint8
	failed     bool
}

func (s span) dur() int64 { return s.end - s.start }

// recShards stripes the RPC spans by Request.ID. A send and the handler
// execution it caused share an ID and therefore a stripe, and concurrent
// recorders rarely meet on one stripe's mutex.
const recShards = 64

type recShard struct {
	mu     sync.Mutex
	spans  []span
	frozen bool     // set when the phase ends; later spans are dropped
	_      [24]byte // keeps neighbouring stripes off one cache line
}

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	base   time.Time
	shards [recShards]recShard
	// roots holds one slice per client goroutine plus one, last, for the
	// stepper; each is appended to by its own goroutine only.
	roots [][]span
}

func newRecorder(clients int) *recorder {
	return &recorder{base: time.Now(), roots: make([][]span, clients+1)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) stepperSlot() int {
	if r == nil {
		return 0
	}
	return len(r.roots) - 1
}

// root records a root span for slot; a nil recorder records nothing.
func (r *recorder) root(slot int, op uint8, t0, t1 time.Time, failed bool) {
	if r == nil {
		return
	}
	r.roots[slot] = append(r.roots[slot], span{
		start: int64(t0.Sub(r.base)), end: int64(t1.Sub(r.base)),
		id: uint64(slot), op: op, failed: failed,
	})
}

func (r *recorder) rpc(s span) {
	sh := &r.shards[s.id%recShards]
	sh.mu.Lock()
	if !sh.frozen {
		sh.spans = append(sh.spans, s)
	}
	sh.mu.Unlock()
}

// freeze ends the phase: RPC spans recorded from now on, by stragglers
// such as the asynchronous resume sends of a kill, are dropped, and the
// recorded ones may be read without the stripe locks.
func (r *recorder) freeze() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.frozen = true
		sh.mu.Unlock()
	}
}

// reset drops everything recorded so far (the set-up and warm-up
// traffic) and starts a phase. No goroutine may be recording root spans.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.spans, sh.frozen = nil, false
		sh.mu.Unlock()
	}
	for i := range r.roots {
		r.roots[i] = nil
	}
}

// len returns the number of spans of a frozen recorder.
func (r *recorder) len() int {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].spans)
	}
	for _, rs := range r.roots {
		n += len(rs)
	}
	return n
}

// spanRecordSize is the size of one span in the file writeFile makes.
const spanRecordSize = 32

// writeFile writes every span of a frozen recorder to path as fixed 32-byte little-endian
// records: start ns, end ns, id (uint64 each), then op, kind and failed
// (one byte each) and five bytes of padding. Root spans come first.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [spanRecordSize]byte
	put := func(s span) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[16:], s.id)
		rec[24], rec[25], rec[26] = s.op, s.kind, 0
		if s.failed {
			rec[26] = 1
		}
		_, _ = w.Write(rec[:]) // a bufio error sticks and Flush returns it
	}
	for _, rs := range r.roots {
		for _, s := range rs {
			put(s)
		}
	}
	for i := range r.shards {
		for _, s := range r.shards[i].spans {
			put(s)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// rpcSummary is the traced fabric's spans folded per message kind.
type rpcSummary struct {
	sends      [][]int64 // send durations by kind, sorted
	handleNs   []int64   // handler time by kind
	handles    []uint64  // handler executions by kind
	tokenNs    int64     // time in token-path sends
	tokenSends uint64
	// fabricNs is, over every successful send, the send's time minus the
	// time of the handler execution nested in it (same Request.ID, inside
	// the send's interval): encode, queues, syscalls, decode, reply.
	fabricNs    int64
	fabricSends uint64
	// tokenHandleNs is the handler time nested in token-path sends.
	tokenHandleNs int64
}

// summarize folds the RPC spans of a frozen recorder. It sorts each
// stripe in place.
func (r *recorder) summarize() rpcSummary {
	n := len(msgKinds) + 1
	s := rpcSummary{sends: make([][]int64, n), handleNs: make([]int64, n), handles: make([]uint64, n)}
	for i := range r.shards {
		spans := r.shards[i].spans
		slices.SortFunc(spans, func(a, b span) int {
			if a.id != b.id {
				return cmp.Compare(a.id, b.id)
			}
			return cmp.Compare(a.start, b.start)
		})
		for lo := 0; lo < len(spans); {
			hi := lo + 1
			for hi < len(spans) && spans[hi].id == spans[lo].id {
				hi++
			}
			s.addCall(spans[lo:hi])
			lo = hi
		}
	}
	for _, d := range s.sends {
		slices.Sort(d)
	}
	return s
}

// addCall folds the spans of one Request.ID: its send attempts and the
// handler executions they caused.
func (s *rpcSummary) addCall(group []span) {
	used := make([]bool, len(group))
	for _, h := range group {
		if h.op == opHandle {
			s.handleNs[h.kind] += h.dur()
			s.handles[h.kind]++
		}
	}
	for _, snd := range group {
		if snd.op != opSend {
			continue
		}
		s.sends[snd.kind] = append(s.sends[snd.kind], snd.dur())
		if tokenPath(snd.kind) {
			s.tokenNs += snd.dur()
			s.tokenSends++
		}
		if snd.failed {
			continue
		}
		handled := int64(0)
		for j, h := range group {
			if h.op == opHandle && !used[j] && h.start >= snd.start && h.end <= snd.end {
				used[j] = true
				handled = h.dur()
				break
			}
		}
		s.fabricNs += snd.dur() - handled
		s.fabricSends++
		if tokenPath(snd.kind) {
			s.tokenHandleNs += handled
		}
	}
}

// quantileNs returns the q-quantile of sorted durations in nanoseconds.
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// tracedFabric is the traced run's transport decorator. It records a span
// for every Send and for every execution of a bound handler, and forwards
// the optional fabric interfaces, so a cluster built over it gets the
// same receiver dedup and RPC observation as over the bare fabric.
type tracedFabric struct {
	inner transport.Transport
	rec   *recorder
}

var (
	_ transport.Redeliverer     = (*tracedFabric)(nil)
	_ transport.RPCInstrumenter = (*tracedFabric)(nil)
)

func (f *tracedFabric) Bind(a transport.Addr, h transport.Handler) error {
	return f.inner.Bind(a, func(req transport.Request) (any, error) {
		start := f.rec.now()
		v, err := h(req)
		f.rec.rpc(span{start: start, end: f.rec.now(), id: req.ID, op: opHandle, kind: kindIndex(req.Kind), failed: err != nil})
		return v, err
	})
}

func (f *tracedFabric) Unbind(a transport.Addr) { f.inner.Unbind(a) }

func (f *tracedFabric) Send(req transport.Request, timeout time.Duration) (any, error) {
	start := f.rec.now()
	v, err := f.inner.Send(req, timeout)
	f.rec.rpc(span{start: start, end: f.rec.now(), id: req.ID, op: opSend, kind: kindIndex(req.Kind), failed: err != nil})
	return v, err
}

func (f *tracedFabric) Stats() transport.Stats { return f.inner.Stats() }

// CanRedeliver reports the wrapped fabric's answer: a cluster turns
// receiver dedup on only when this says a timed-out call may have run.
func (f *tracedFabric) CanRedeliver() bool {
	d, ok := f.inner.(transport.Redeliverer)
	return ok && d.CanRedeliver()
}

func (f *tracedFabric) EnableDedup() {
	if d, ok := f.inner.(transport.Deduper); ok {
		d.EnableDedup()
	}
}

func (f *tracedFabric) InstrumentRPC(o *obs.RPCObs) {
	if ri, ok := f.inner.(transport.RPCInstrumenter); ok {
		ri.InstrumentRPC(o)
	}
}
