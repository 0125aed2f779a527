package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	dur     time.Duration // measured wall time of one phase
	clients int           // closed-loop client goroutines, one per core
}

// setupReps is the least number of times the untraced run builds the
// workload, for the median build time.
const setupReps = 5

// workload is one named load shape.
type workload struct {
	name   string
	fabric string                 // "tcp-loopback" or "in-process", for the stamp
	retry  *transport.RetryConfig // the dist retry policy; nil when no RPCs are made
	// every is the number of completed client calls between two
	// structural steps of the stepper; 0 means the workload has no stepper.
	every uint64
	// instances is the number of builds the untraced run measures. A
	// workload whose network's shape follows from the seed measures
	// several, so that one unusual network does not decide a run.
	instances int
	// setup builds, warms up and settles one instance; rec is non-nil in
	// the traced phase.
	setup func(cfg config, rec *recorder) (instance, error)
}

func (wl *workload) retryString() string {
	if wl.retry == nil {
		return "none"
	}
	r := wl.retry
	return fmt.Sprintf("timeout=%v retries=%d backoff=%v cap=%v", r.Timeout, r.MaxRetries, r.Backoff, r.BackoffCap)
}

// instance is one built workload, ready for load.
type instance interface {
	// call issues client c's next call and returns the tokens it
	// completed. Each client calls from its own goroutine.
	call(c int) (tokens int, err error)
	// step issues structural step i of the stepper's schedule, timing each
	// structural call through ops. Only the stepper goroutine calls it.
	step(i uint64, ops *opLog) error
	// begin snapshots the program's counters just before a phase.
	begin()
	// layers fills the per-layer metrics of the phase that followed begin.
	layers(ph *phase, rec *recorder, m metrics)
	// check runs the correctness gates; the network must be quiescent.
	check() error
	close() error
}

var workloads = []*workload{&tcpToken, &tcpBatchReconfig, &coreChurn}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// stream returns the seeded random stream number id of a run. Every
// source of randomness in a workload draws from its own stream, so the
// same seed gives the same arrival sequences and schedules.
func stream(seed uint64, id uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, id))
}

// arrivals is one client's seeded sequence of input wires: runs of equal
// wires, each run's wire uniform over the width and its length uniform
// in [1, maxRun].
type arrivals struct {
	rng          *rand.Rand
	width        int
	maxRun       int
	wire, remain int
}

func newArrivals(seed uint64, client, width, maxRun int) *arrivals {
	return &arrivals{rng: stream(seed, uint64(client)), width: width, maxRun: maxRun}
}

func (a *arrivals) next() int {
	if a.remain == 0 {
		a.wire = a.rng.IntN(a.width)
		a.remain = 1 + a.rng.IntN(a.maxRun)
	}
	a.remain--
	return a.wire
}

// opLog times the stepper's structural calls. Only the stepper goroutine
// writes it, and it is read after the stepper has stopped.
type opLog struct {
	rec       *recorder
	durs      map[uint8][]time.Duration // by span op
	attempted uint64
	failed    uint64
}

func newOpLog(rec *recorder) *opLog {
	return &opLog{rec: rec, durs: map[uint8][]time.Duration{}}
}

// time runs one structural call, records its duration as a root span of
// kind op, and counts it.
func (l *opLog) time(op uint8, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	l.durs[op] = append(l.durs[op], t1.Sub(t0))
	l.rec.root(l.rec.stepperSlot(), op, t0, t1, err != nil)
	l.attempted++
	if err != nil {
		l.failed++
	}
	return err
}

// msP returns the q-quantile of the op's durations in milliseconds.
func (l *opLog) msP(op uint8, q float64) float64 {
	var h latHist
	for _, d := range l.durs[op] {
		h.add(d)
	}
	return h.quantile(q) / 1e6
}

// latWindow is the number of consecutive calls of one client that form a
// latency window. The end-to-end percentiles are medians over the
// windows of each window's percentile: on a shared host a neighbour that
// takes the CPUs for a few seconds spoils the windows it overlaps, and
// the median of the rest still describes the program. A window leaves 50
// samples beyond its p99. A client that completes no full window
// contributes its partial one.
const latWindow = 5000

// clientStats is one client goroutine's tally.
type clientStats struct {
	calls, failed, tokens uint64
	lat                   latHist // every call
	win                   latHist // the calls of the open window
	p50s, p99s            []float64
	firstErr              error
}

func (cs *clientStats) record(d time.Duration) {
	cs.lat.add(d)
	cs.win.add(d)
	if cs.win.n == latWindow {
		cs.closeWindow()
	}
}

func (cs *clientStats) closeWindow() {
	cs.p50s = append(cs.p50s, cs.win.quantile(0.50))
	cs.p99s = append(cs.p99s, cs.win.quantile(0.99))
	cs.win = latHist{}
}

// phase is the measurement of one closed-loop run.
type phase struct {
	wall                  time.Duration
	calls, failed, tokens uint64
	lat                   latHist   // call durations, all clients
	p50s, p99s            []float64 // of every latency window, ns
	ops                   *opLog
	cpu                   time.Duration
	allocBytes            uint64
	heapPeak              uint64
	hostTicks, stolen     uint64 // host CPU ticks during the phase, and the hypervisor's share
	firstErr              error
}

// guestRate is the phase's completed tokens per second of wall time the
// hypervisor let the guest run: the clients keep every CPU busy, so the
// share of host time stolen from the guest is time the program could not
// use.
func (ph *phase) guestRate() float64 {
	return ratio(ph.tokens, ph.wall.Seconds()*(1-ratio(ph.stolen, ph.hostTicks)))
}

// absorb adds the measurement of a later phase to ph.
func (ph *phase) absorb(o *phase) {
	ph.wall += o.wall
	ph.calls += o.calls
	ph.failed += o.failed
	ph.tokens += o.tokens
	ph.lat.merge(&o.lat)
	ph.p50s = append(ph.p50s, o.p50s...)
	ph.p99s = append(ph.p99s, o.p99s...)
	ph.ops.attempted += o.ops.attempted
	ph.ops.failed += o.ops.failed
	for op, d := range o.ops.durs {
		ph.ops.durs[op] = append(ph.ops.durs[op], d...)
	}
	ph.cpu += o.cpu
	ph.allocBytes += o.allocBytes
	ph.heapPeak = max(ph.heapPeak, o.heapPeak)
	ph.hostTicks += o.hostTicks
	ph.stolen += o.stolen
	if ph.firstErr == nil {
		ph.firstErr = o.firstErr
	}
}

// drive runs the closed loop for cfg.dur: each client calls, waits for
// its value and calls again; the stepper, when the workload has one, runs
// structural step i once (i+1)*every calls have completed.
func drive(inst instance, wl *workload, cfg config, rec *recorder) *phase {
	ph := &phase{ops: newOpLog(rec)}
	clients := make([]clientStats, cfg.clients)
	runtime.GC()
	inst.begin()
	rec.reset()
	before := readProc()
	heap := startHeapSampler()

	var completed atomic.Uint64
	tick := make(chan struct{}, 1)
	stop := make(chan struct{})
	var stepper sync.WaitGroup
	if wl.every > 0 {
		stepper.Add(1)
		go func() {
			defer stepper.Done()
			for i := uint64(0); ; {
				select {
				case <-stop:
					return
				case <-tick:
				}
				for ; (i+1)*wl.every <= completed.Load(); i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = inst.step(i, ph.ops) // failures are counted by the op log
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(cfg.dur)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &clients[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				n, err := inst.call(c)
				t1 := time.Now()
				cs.calls++
				cs.record(t1.Sub(t0))
				rec.root(c, opCall, t0, t1, err != nil)
				if err != nil {
					cs.failed++
					if cs.firstErr == nil {
						cs.firstErr = err
					}
				} else {
					cs.tokens += uint64(n)
				}
				if wl.every > 0 && completed.Add(1)%wl.every == 0 {
					select {
					case tick <- struct{}{}:
					default:
					}
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	close(stop)
	stepper.Wait()
	rec.freeze()
	after := readProc()
	// The heap sampler sees the live heap as of the last GC; a GC now
	// adds the live heap at the end of the phase, which is its peak when
	// the program's structures only grow.
	runtime.GC()
	ph.heapPeak = heap.stop()
	ph.cpu = after.cpu - before.cpu
	ph.allocBytes = after.allocs - before.allocs
	ph.hostTicks, ph.stolen = after.hostTicks-before.hostTicks, after.stolen-before.stolen
	for i := range clients {
		cs := &clients[i]
		ph.calls += cs.calls
		ph.failed += cs.failed
		ph.tokens += cs.tokens
		ph.lat.merge(&cs.lat)
		if len(cs.p50s) == 0 && cs.win.n > 0 {
			cs.closeWindow()
		}
		ph.p50s = append(ph.p50s, cs.p50s...)
		ph.p99s = append(ph.p99s, cs.p99s...)
		if ph.firstErr == nil {
			ph.firstErr = cs.firstErr
		}
	}
	return ph
}

// measured runs one phase on inst and gates it.
func measured(inst instance, wl *workload, cfg config, rec *recorder, res *result) *phase {
	ph := drive(inst, wl, cfg, rec)
	res.attempted += ph.calls + ph.ops.attempted
	res.failed += ph.failed + ph.ops.failed
	if ph.firstErr != nil {
		res.gateErrs = append(res.gateErrs, fmt.Errorf("%d of %d calls failed, first: %w", ph.failed, ph.calls, ph.firstErr))
	}
	if err := inst.check(); err != nil {
		res.gateErrs = append(res.gateErrs, err)
	}
	return ph
}

// instanceSeed is the seed of the i-th build of a run.
func instanceSeed(seed uint64, i int) uint64 {
	return stream(seed, instanceStream+uint64(i)).Uint64()
}

// instanceStream is the first stream id of the instance seeds; client
// arrival streams use ids 0..clients-1.
const instanceStream = 1 << 33

// runEndToEnd is the untraced run. It builds the workload
// max(setupReps, wl.instances) times in turn, each build from its own
// seed derived from the run's; setup_s is the median build time in guest
// seconds. The last
// wl.instances builds are measured, each for an equal share of the run's
// time, and the metrics pool them.
func runEndToEnd(wl *workload, cfg config) (*result, error) {
	res := &result{metrics: metrics{}}
	sub := cfg
	sub.dur = cfg.dur / time.Duration(wl.instances)
	builds := max(setupReps, wl.instances)
	var (
		setups               []float64
		setupTicks, setupStl uint64 // host CPU ticks during the builds, and the stolen ones
	)
	for i := 0; i < builds; i++ {
		sub.seed = instanceSeed(cfg.seed, i)
		before, t0 := readProc(), time.Now()
		inst, err := wl.setup(sub, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		after := readProc()
		setupTicks += after.hostTicks - before.hostTicks
		setupStl += after.stolen - before.stolen
		if i >= builds-wl.instances {
			ph := measured(inst, wl, sub, nil, res)
			if res.main == nil {
				res.main = ph
			} else {
				res.main.absorb(ph)
			}
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	ph, m := res.main, res.metrics
	m.set("tokens_per_guest_s", ph.guestRate())
	m.set("call_p50_us", median(ph.p50s)/1e3)
	m.set("completed_share", 1-ratio(res.failed, res.attempted))
	m.set("cpu_us_per_token", ratio(ph.cpu.Seconds()*1e6, ph.tokens))
	m.set("alloc_bytes_per_token", ratio(ph.allocBytes, ph.tokens))
	m.set("heap_peak_mb", float64(ph.heapPeak)/(1<<20))
	// Like the rate, the build time counts only the time the guest ran;
	// one build is too short for the 10 ms ticks of /proc/stat, so the
	// stolen share is taken over all builds.
	m.set("setup_s", median(setups)*(1-ratio(setupStl, setupTicks)))
	return res, nil
}

// runTraced is the traced run: one untraced phase for the baseline
// throughput, then the same workload built over the span recorder. The
// per-layer metrics come from the traced phase. Each phase takes half of
// the run's time.
func runTraced(wl *workload, cfg config, spanDir string) (*result, error) {
	cfg.dur /= 2
	cfg.seed = instanceSeed(cfg.seed, max(setupReps, wl.instances)-1)
	res := &result{metrics: metrics{}}
	plain, err := wl.setup(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	base := measured(plain, wl, cfg, nil, res)
	if err := plain.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	rec := newRecorder(cfg.clients)
	inst, err := wl.setup(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	ph := measured(inst, wl, cfg, rec, res)
	res.main = ph
	inst.layers(ph, rec, res.metrics)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.metrics.set("obs.trace_overhead_pct", 100*ratio(base.guestRate()-ph.guestRate(), base.guestRate()))
	res.metrics.set("obs.spans", float64(rec.len()))
	if spanDir != "" {
		if err := rec.writeFile(filepath.Join(spanDir, wl.name+".spans")); err != nil {
			return nil, err
		}
	}
	return res, nil
}
