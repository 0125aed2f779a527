package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

const (
	distWidth = 1024 // w of the dist workloads
	distLevel = 2    // uniform cut level: 24 components, depth 6
	// burst is the tokens one InjectBatch call carries.
	burst = 128
	// burstMaxRun bounds a run of equal wires inside a burst.
	burstMaxRun = 32
	// reconfigEvery is the batches completed between two reconfigurations.
	reconfigEvery = 32
	// tokenWarmup is the tokens each client injects during set-up.
	tokenWarmup = 256
)

// reconfigTarget is the component the tcp-batch-reconfig stepper splits
// and merges back.
const reconfigTarget = tree.Path("00")

// e31Retry is the retry policy of experiment E31, which sized its
// timeout for loopback TCP under group batching.
var e31Retry = transport.RetryConfig{
	Timeout:    50 * time.Millisecond,
	MaxRetries: 8,
	Backoff:    100 * time.Microsecond,
	BackoffCap: 2 * time.Millisecond,
}

var tcpToken = workload{
	name:      "tcp-token",
	fabric:    "tcp-loopback",
	retry:     &e31Retry,
	instances: 1,
	setup: func(cfg config, rec *recorder) (instance, error) {
		return newDistInstance(cfg, rec, false)
	},
}

var tcpBatchReconfig = workload{
	name:      "tcp-batch-reconfig",
	fabric:    "tcp-loopback",
	retry:     &e31Retry,
	every:     reconfigEvery,
	instances: 1,
	setup: func(cfg config, rec *recorder) (instance, error) {
		return newDistInstance(cfg, rec, true)
	},
}

// distInstance is a dist.Cluster on one loopback tcpnet fabric. Single
// tokens go through Inject; with batch set, bursts go through InjectBatch
// with the adapt controller wired as in E31, and the stepper splits and
// merges reconfigTarget.
type distInstance struct {
	tn     *tcpnet.Net
	cl     *dist.Cluster
	batch  bool
	arr    []*arrivals
	bufs   [][]int
	sizes  []latHist // adapt recommendation seen by each client's calls
	ctrl   *adapt.Controller
	poller *adapt.Poller
	done   atomic.Uint64 // tokens completed over the cluster's life

	st0 transport.Stats
	cs0 transport.ClientStats
	ws0 tcpnet.WireStats
	ad0 uint64
}

func newDistInstance(cfg config, rec *recorder, batch bool) (_ *distInstance, err error) {
	cut, err := tree.UniformCut(distWidth, distLevel)
	if err != nil {
		return nil, err
	}
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	d := &distInstance{tn: tn, batch: batch}
	defer func() {
		if err != nil {
			_ = d.close() // the set-up error is the one to report
		}
	}()
	var tr transport.Transport = tn
	if rec != nil {
		tr = &tracedFabric{inner: tn, rec: rec}
	}
	d.cl, err = dist.New(distWidth, cut, dist.WithTransport(tr), dist.WithRetry(e31Retry))
	if err != nil {
		return nil, err
	}
	maxRun := 1
	if batch {
		maxRun = burstMaxRun
		d.wireAdapt()
	}
	d.arr = make([]*arrivals, cfg.clients)
	d.bufs = make([][]int, cfg.clients)
	d.sizes = make([]latHist, cfg.clients)
	for c := range d.arr {
		d.arr[c] = newArrivals(cfg.seed, c, distWidth, maxRun)
		d.bufs[c] = make([]int, burst)
	}
	return d, d.warmUp()
}

// wireAdapt installs the adapt controller and its poller exactly as E31
// does: handler latency observed server-side, wire counters sampled as
// deltas every 200µs.
func (d *distInstance) wireAdapt() {
	reg := obs.NewRegistry()
	ro := obs.NewRPCObs(obs.RPCObsConfig{Registry: reg})
	d.cl.InstrumentRPC(ro)
	d.ctrl = adapt.New(adapt.DefaultConfig())
	d.ctrl.Instrument(reg)
	d.cl.UseAdapt(d.ctrl)
	var last tcpnet.WireStats
	d.poller = adapt.NewPoller(d.ctrl, 200*time.Microsecond, func() adapt.Sample {
		ws := d.tn.WireStats()
		smp := adapt.Sample{
			Latency:    ro.LatencyEWMA(wire.KindGroupArrive),
			Frames:     ws.Frames - last.Frames,
			Writes:     ws.Writes - last.Writes,
			QueueDepth: int(ws.QueueDepth),
			Spills:     ws.Spills - last.Spills,
		}
		last = ws
		return smp
	})
}

// warmUp opens the connections and fills the endpoint pool. With the
// controller installed it then injects, as E31 does, until the
// recommendation has not moved for 10ms (at most 200ms).
func (d *distInstance) warmUp() error {
	errs := make(chan error, len(d.arr))
	for c := range d.arr {
		go func(c int) {
			var err error
			for n := 0; n < tokenWarmup && err == nil; {
				var k int
				k, err = d.call(c)
				n += k
			}
			errs <- err
		}(c)
	}
	var first error
	for range d.arr {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil || d.ctrl == nil {
		return first
	}
	lastSize, lastMove := d.ctrl.Size(), time.Now()
	deadline := lastMove.Add(200 * time.Millisecond)
	for time.Since(lastMove) < 10*time.Millisecond && time.Now().Before(deadline) {
		if _, err := d.call(0); err != nil {
			return err
		}
		if sz := d.ctrl.Size(); sz != lastSize {
			lastSize, lastMove = sz, time.Now()
		}
	}
	return nil
}

func (d *distInstance) call(c int) (int, error) {
	arr := d.arr[c]
	if !d.batch {
		if _, err := d.cl.Inject(arr.next()); err != nil {
			return 0, err
		}
		d.done.Add(1)
		return 1, nil
	}
	buf := d.bufs[c]
	for i := range buf {
		buf[i] = arr.next()
	}
	d.sizes[c].addValue(uint64(d.ctrl.Size()))
	if _, err := d.cl.InjectBatch(buf); err != nil {
		return 0, err
	}
	d.done.Add(uint64(len(buf)))
	return len(buf), nil
}

// step splits reconfigTarget on even steps and merges it back on odd ones.
func (d *distInstance) step(i uint64, ops *opLog) error {
	if i%2 == 0 {
		return ops.time(opSplit, func() error { return d.cl.Split(reconfigTarget) })
	}
	return ops.time(opMerge, func() error { return d.cl.Merge(reconfigTarget) })
}

func (d *distInstance) begin() {
	d.st0, d.cs0 = d.cl.NetStats()
	d.ws0 = d.tn.WireStats()
	d.ad0 = d.adjustments()
	for i := range d.sizes {
		d.sizes[i] = latHist{}
	}
}

func (d *distInstance) adjustments() uint64 {
	if d.ctrl == nil {
		return 0
	}
	up, down, _ := d.ctrl.Adjustments()
	return up + down
}

func (d *distInstance) layers(ph *phase, rec *recorder, m metrics) {
	st, cs := d.cl.NetStats()
	dst, dcs := st.Sub(d.st0), cs.Sub(d.cs0)
	ws := d.tn.WireStats()
	frames, writes := ws.Frames-d.ws0.Frames, ws.Writes-d.ws0.Writes
	bytes := ws.BytesOut - d.ws0.BytesOut
	reconfigs := ph.ops.attempted

	m.set("dist.rpcs_per_token", ratio(dcs.Calls, ph.tokens))
	m.set("transport.timeouts_per_reconfig", ratio(dcs.Timeouts, reconfigs))
	m.set("transport.retries", float64(dcs.Retries))
	m.set("transport.failures", float64(dcs.Failures))
	m.set("transport.dedup_hits", float64(dst.DedupHits))
	m.set("tcpnet.frames_per_write", ratio(frames, writes))
	m.set("tcpnet.writes_per_token", ratio(writes, ph.tokens))
	m.set("tcpnet.spills", float64(ws.Spills-d.ws0.Spills))
	m.set("tcpnet.dials", float64(ws.Dials))
	m.set("wire.bytes_per_token", ratio(bytes, ph.tokens))
	m.set("wire.bytes_per_frame", ratio(bytes, frames))
	m.set("dist.split_ms_p50", ph.ops.msP(opSplit, 0.5))
	m.set("dist.merge_ms_p50", ph.ops.msP(opMerge, 0.5))
	if d.ctrl != nil {
		var sizes latHist
		for i := range d.sizes {
			sizes.merge(&d.sizes[i])
		}
		m.set("adapt.size_p50", sizes.quantile(0.5))
		m.set("adapt.adjustments", float64(d.adjustments()-d.ad0))
	}

	s := rec.summarize()
	callUs := ph.lat.mean() / 1e3
	selfUs := (ph.lat.sum - float64(s.tokenNs)) / 1e3 / float64(max(ph.calls, 1))
	m.set("dist.call_us_mean", callUs)
	m.set("dist.injector_self_us_per_call", selfUs)
	for k, name := range msgKinds {
		m.set("dist.handler."+name+".us_mean", ratio(s.handleNs[k], s.handles[k])/1e3)
		m.set("tcpnet.send."+name+".us_p50", quantileNs(s.sends[k], 0.50)/1e3)
		m.set("tcpnet.send."+name+".us_p99", quantileNs(s.sends[k], 0.99)/1e3)
	}
	fabricUs := ratio(s.fabricNs, s.fabricSends) / 1e3
	m.set("tcpnet.fabric_us_per_rpc", fabricUs)
	// Reconciliation: injector self time, plus per call the token-path
	// sends at the mean fabric time and the handler time nested in them,
	// against the mean call time.
	sum := selfUs + ratio(s.tokenSends, ph.calls)*fabricUs + ratio(s.tokenHandleNs, ph.calls)/1e3
	m.set("obs.reconcile_gap_pct", 100*ratio(math.Abs(sum-callUs), callUs))
}

// check is the dist correctness gate: at quiescence every injected token
// came out, exactly the completed ones, and the output has the step
// property.
func (d *distInstance) check() error {
	out, in, done := d.cl.OutCounts().Total(), d.cl.InCounts().Total(), d.done.Load()
	if out != in || uint64(out) != done {
		return fmt.Errorf("conservation: %d tokens out, %d in, %d completed", out, in, done)
	}
	return d.cl.CheckStep()
}

func (d *distInstance) close() error {
	if d.poller != nil {
		d.poller.Stop()
	}
	return d.tn.Close()
}
