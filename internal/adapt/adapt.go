// Package adapt closes the loop between the repo's two amortization
// layers. The batching layers (core.Client.InjectBatch, dist.InjectBatch,
// workload.RunBatched) pick group/chunk sizes; the transport layer
// (tcpnet's write coalescer, handler pool) measures what those sizes do to
// the wire — coalescing factor, flush queue depth, handler latency,
// pool spillover. Until now the sizes were static constants chosen by the
// caller. The Controller here turns the size into a controlled variable:
// an AIMD (additive-increase / multiplicative-decrease) feedback loop with
// hysteresis that grows the recommended size while the downstream signals
// say the wire can absorb larger groups, and backs off multiplicatively
// when overload signals (RPC latency EWMA, handler-pool spills) appear.
//
// The controller is lock-light by construction: readers on the injection
// hot path call Size(), a single atomic load; the control loop calls
// Observe() once per sampling window (milliseconds, not microseconds), and
// configuration is swapped atomically so live retuning never blocks a
// reader. The decision path performs zero heap allocations (pinned by
// TestObserveAllocs with testing.AllocsPerRun).
package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultMax is the largest group/chunk size the default-configured
// controller will ever recommend. The wire fuzz corpus seeds a group
// arrive frame at exactly this many tokens to pin codec behavior at the
// controller's upper bound (see internal/wire FuzzGroupArrive).
const DefaultMax = 512

// SizeError reports a non-positive batch/group/chunk size handed to a
// sizing API (workload.RunBatched, dist.(*Cluster).SetGroupLimit, ...).
// Callers detect it with errors.As.
type SizeError struct {
	Op   string // the API that rejected the size, e.g. "workload: RunBatched"
	Size int    // the offending value
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: invalid size %d (must be >= 1)", e.Op, e.Size)
}

// Config bounds and tunes a Controller. The zero value is usable: every
// unset field takes the default documented on it (see DefaultConfig for
// the fully resolved defaults).
type Config struct {
	// Min and Max clamp the recommended size (defaults 1 and DefaultMax).
	Min, Max int
	// Initial is the size before any feedback arrives (default 16).
	Initial int
	// Step is the additive increase applied per grow decision (default 16).
	Step int
	// Backoff is the multiplicative decrease factor in (0,1) applied per
	// shrink decision (default 0.5).
	Backoff float64
	// Hysteresis is how many consecutive same-direction windows must
	// accumulate before the controller acts (default 2). Contended windows
	// (see CoalesceHigh/QueueHigh) count double toward growing, so visible
	// wire contention halves the reaction time in the grow direction.
	Hysteresis int

	// CoalesceHigh marks a window as wire-contended when the observed
	// coalescing factor (Sample.Frames/Sample.Writes) reaches it (default
	// 1.05): frames sharing vectored writes means concurrent senders are
	// colliding on connections, and larger groups would amortize further.
	CoalesceHigh float64
	// QueueHigh marks a window as wire-contended when the flush queue
	// depth (tcpnet.flush.queue) reaches it (default 2).
	QueueHigh int
	// LatencyHigh marks a window as overloaded when the per-kind RPC
	// handler latency EWMA reaches it (default 2ms): handlers taking too
	// long means groups have outgrown what the receiver digests promptly.
	LatencyHigh time.Duration
	// SpillHigh marks a window as overloaded when the window's handler
	// pool spillover count reaches it (default 4): spills mean the bounded
	// pool is saturated and extra goroutines are being burned.
	SpillHigh uint64
}

// DefaultConfig returns Config with every default resolved.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = DefaultMax
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial <= 0 {
		c.Initial = 16
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Step <= 0 {
		c.Step = 16
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.5
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.CoalesceHigh <= 0 {
		c.CoalesceHigh = 1.05
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = 2
	}
	if c.LatencyHigh <= 0 {
		c.LatencyHigh = 2 * time.Millisecond
	}
	if c.SpillHigh <= 0 {
		c.SpillHigh = 4
	}
	return c
}

// Sizes enumerates every size a Controller under this config can ever
// recommend: the closure of {Initial} under the grow (size+Step, clamped
// to Max) and shrink (size*Backoff, clamped to Min) transitions, in
// ascending order. The exact-equivalence oracle tests iterate this set so
// counting correctness is pinned at every reachable adaptation point.
func (c Config) Sizes() []int {
	c = c.withDefaults()
	seen := map[int]bool{}
	frontier := []int{c.Initial}
	for len(frontier) > 0 {
		s := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		frontier = append(frontier, growSize(s, c.Step, c.Max), shrinkSize(s, c.Backoff, c.Min))
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	// Insertion sort: the set is small (O(Max/Step + log ratio)).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func growSize(s, step, max int) int {
	s += step
	if s > max {
		s = max
	}
	return s
}

func shrinkSize(s int, backoff float64, min int) int {
	s = int(float64(s) * backoff)
	if s < min {
		s = min
	}
	return s
}

// Sample is one sampling window's worth of downstream signals. Frames,
// Writes and Spills are window deltas of the corresponding monotonic
// counters (e.g. tcpnet.WireStats fields); QueueDepth is the
// instantaneous flush queue depth at sampling time; Latency is the
// current per-kind RPC handler latency EWMA (obs.RPCObs.LatencyEWMA).
// Zero-valued fields simply contribute no pressure, so a mem-fabric
// caller with no wire counters can feed latency alone.
type Sample struct {
	Frames, Writes uint64
	QueueDepth     int
	Latency        time.Duration
	Spills         uint64
}

// Decision is the outcome of one Observe call.
type Decision int8

const (
	// Hold means the size did not change this window (no pressure, a
	// hysteresis streak still accumulating, or a grow/shrink clamped at a
	// bound).
	Hold Decision = iota
	// Grow means the size additively increased by Step.
	Grow
	// Shrink means the size multiplicatively decreased by Backoff.
	Shrink
)

func (d Decision) String() string {
	switch d {
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	default:
		return "hold"
	}
}

// Controller is the AIMD batch-size controller. Construct with New, feed
// windows of signals through Observe (typically from a Poller), and read
// the current recommendation with Size anywhere on the injection path —
// Size is a single atomic load and is safe from any goroutine. Observe is
// internally serialized and safe for concurrent use, though one sampling
// loop per controller is the intended shape.
type Controller struct {
	cfg  atomic.Pointer[Config]
	size atomic.Int64

	mu           sync.Mutex // serializes decisions, config swaps and size/gauge writes
	growStreak   int
	shrinkStreak int

	adjUp, adjDown, holds atomic.Uint64

	tracer *obs.Tracer
	gSize  *obs.Gauge
	cUp    *obs.Counter
	cDown  *obs.Counter
	cHold  *obs.Counter
}

// New creates a controller; unset cfg fields take their defaults.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{}
	c.cfg.Store(&cfg)
	c.size.Store(int64(cfg.Initial))
	return c
}

// Size returns the current recommended group/chunk size (always >= 1).
// It is one atomic load: callers may consult it per chunk on hot paths.
func (c *Controller) Size() int { return int(c.size.Load()) }

// Config returns the controller's current (fully defaulted) config.
func (c *Controller) Config() Config { return *c.cfg.Load() }

// SetConfig swaps the tuning parameters and re-clamps the current size
// into the new [Min, Max]. It is serialized with Observe: every decision
// uses either the old or the new config, never a mix, and the size and
// the adapt.size gauge change together under the decision lock.
func (c *Controller) SetConfig(cfg Config) {
	cfg = cfg.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Store(&cfg)
	size := min(max(c.size.Load(), int64(cfg.Min)), int64(cfg.Max))
	c.size.Store(size)
	c.gSize.Set(size)
}

// Instrument registers the controller's metrics in reg: the adapt.size
// gauge (current recommendation) and the adapt.adjust.up /
// adapt.adjust.down / adapt.hold decision counters. Nil-safe instruments
// mean a nil reg is accepted and records nothing.
func (c *Controller) Instrument(reg *obs.Registry) {
	c.gSize = reg.Gauge("adapt.size")
	c.cUp = reg.Counter("adapt.adjust.up")
	c.cDown = reg.Counter("adapt.adjust.down")
	c.cHold = reg.Counter("adapt.hold")
	c.mu.Lock()
	c.gSize.Set(c.size.Load())
	c.mu.Unlock()
}

// Trace attaches a tracer: each Observe call that the tracer's stride
// samples emits one decision span carrying the window's signals and the
// decision as events. Unsampled windows stay allocation-free.
func (c *Controller) Trace(tr *obs.Tracer) { c.tracer = tr }

// Adjustments returns the cumulative (grow, shrink, hold) decision counts.
func (c *Controller) Adjustments() (up, down, holds uint64) {
	return c.adjUp.Load(), c.adjDown.Load(), c.holds.Load()
}

// Observe feeds one sampling window of signals into the control loop and
// returns the decision applied. Direction is decided by two classifiers:
//
//   - overloaded — Latency >= LatencyHigh or Spills >= SpillHigh: the
//     receiver is struggling; after Hysteresis consecutive overloaded
//     windows the size backs off multiplicatively (Backoff).
//   - otherwise the loop probes upward (classic AIMD additive increase):
//     after Hysteresis consecutive non-overloaded windows the size grows
//     by Step. Windows that are wire-contended — coalescing factor
//     Frames/Writes >= CoalesceHigh or QueueDepth >= QueueHigh — count
//     double toward that streak, so measured coalescing feeds straight
//     back into faster growth.
//
// Shrink pressure always wins over grow pressure within a window. A
// decision clamped at Min/Max degrades to Hold.
func (c *Controller) Observe(s Sample) Decision {
	factor := 0.0
	if s.Writes > 0 {
		factor = float64(s.Frames) / float64(s.Writes)
	}

	d := Hold
	c.mu.Lock()
	cfg := c.cfg.Load()
	overloaded := s.Latency >= cfg.LatencyHigh || s.Spills >= cfg.SpillHigh
	contended := factor >= cfg.CoalesceHigh || s.QueueDepth >= cfg.QueueHigh
	cur := c.size.Load()
	next := cur
	if overloaded {
		c.growStreak = 0
		c.shrinkStreak++
		if c.shrinkStreak >= cfg.Hysteresis {
			c.shrinkStreak = 0
			next = int64(shrinkSize(int(cur), cfg.Backoff, cfg.Min))
			if next != cur {
				d = Shrink
			}
		}
	} else {
		c.shrinkStreak = 0
		c.growStreak++
		if contended {
			c.growStreak++
		}
		if c.growStreak >= cfg.Hysteresis {
			c.growStreak = 0
			next = int64(growSize(int(cur), cfg.Step, cfg.Max))
			if next != cur {
				d = Grow
			}
		}
	}
	if next != cur {
		c.size.Store(next)
	}
	// Published under mu, so a concurrent SetConfig cannot interleave
	// between the size store and the gauge.
	c.gSize.Set(next)
	c.mu.Unlock()

	switch d {
	case Grow:
		c.adjUp.Add(1)
		c.cUp.Inc()
	case Shrink:
		c.adjDown.Add(1)
		c.cDown.Inc()
	default:
		c.holds.Add(1)
		c.cHold.Inc()
	}

	if sp := c.tracer.Start("adapt.decide"); sp != nil {
		sp.Event("coalesce_x100", "", int64(factor*100))
		sp.Event("queue", "", int64(s.QueueDepth))
		sp.Event("latency_us", "", s.Latency.Microseconds())
		sp.Event("spills", "", int64(s.Spills))
		sp.Event(d.String(), "", next)
		sp.Finish()
	}
	return d
}
