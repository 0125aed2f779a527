package dist

import (
	"repro/internal/adapt"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
)

// Option configures a Cluster at construction. Options compose left to
// right; the zero set reproduces New's historical behavior (in-memory
// fabric, default retries, no observability). The facade re-exports
// these, so application callers and experiments build clusters through
// one path instead of a positional-constructor zoo.
type Option func(*options)

type options struct {
	tr          transport.Transport
	retry       transport.RetryConfig
	reg         *obs.Registry
	adapt       *adapt.Controller
	traceEvery  int
	traceRetain int
}

// WithTransport runs the cluster's token and control messages over tr.
// Pass a transport.Faulty to exercise the freeze protocol under message
// loss, delay, duplication and reordering; omit for the ideal in-memory
// fabric.
func WithTransport(tr transport.Transport) Option {
	return func(o *options) { o.tr = tr }
}

// WithRetry sets the reliability client's retry policy (zero fields take
// transport.DefaultRetry values). RetryConfig.IDBase matters in
// multi-process topologies: give each process a disjoint ID range so
// receiver dedup tables never alias calls from different processes.
func WithRetry(rc transport.RetryConfig) Option {
	return func(o *options) { o.retry = rc }
}

// WithObs instruments the cluster's protocol distributions into reg,
// like a post-construction Instrument call.
func WithObs(reg *obs.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithAdapt drives group-RPC sizing from the controller's live
// recommendation, like a post-construction UseAdapt call.
func WithAdapt(c *adapt.Controller) Option {
	return func(o *options) { o.adapt = c }
}

// WithTrace installs a span sampler (1-in-every stride, bounded retain),
// like a post-construction Trace call; combine with WithObs to export
// the spans through the registry's trace sources.
func WithTrace(every, retain int) Option {
	return func(o *options) { o.traceEvery, o.traceRetain = every, retain }
}

// NewWith creates a cluster implementing BITONIC[w] with the given cut,
// configured by opts. This is the construction path everything else
// funnels into: New and NewOn are thin wrappers over it.
func NewWith(w int, cut tree.Cut, opts ...Option) (*Cluster, error) {
	o := options{tr: nil}
	for _, opt := range opts {
		opt(&o)
	}
	if o.tr == nil {
		o.tr = transport.NewMem()
	}
	cl, err := newOn(w, cut, o.tr, o.retry)
	if err != nil {
		return nil, err
	}
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
