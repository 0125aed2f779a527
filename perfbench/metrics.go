package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// metricDef names one printed metric and its unit. The lists below are
// the single source of the names BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a caller of the counter sees; the untraced
// run (--trace 0) prints exactly these. The wall-clock rate and the call
// p99 are in the stamp instead: on a shared host they follow the
// hypervisor's steal more than the program (see README.md).
var endToEndDefs = []metricDef{
	{"tokens_per_guest_s", "1/s"},
	{"call_p50_us", "us"},
	{"completed_share", "ratio"},
	{"cpu_us_per_token", "us"},
	{"alloc_bytes_per_token", "B"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerDefs are the metrics of single layers; the traced run
// (--trace 1) prints exactly these. A layer a workload does not exercise
// reads 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"dist.rpcs_per_token", "rpc/token"},
		{"dist.call_us_mean", "us"},
		{"dist.injector_self_us_per_call", "us"},
	}
	for _, k := range msgKinds {
		defs = append(defs, metricDef{"dist.handler." + k + ".us_mean", "us"})
	}
	defs = append(defs,
		metricDef{"dist.split_ms_p50", "ms"},
		metricDef{"dist.merge_ms_p50", "ms"},
		metricDef{"transport.timeouts_per_reconfig", "timeout/op"},
		metricDef{"transport.retries", "count"},
		metricDef{"transport.failures", "count"},
		metricDef{"transport.dedup_hits", "count"},
	)
	for _, k := range msgKinds {
		defs = append(defs,
			metricDef{"tcpnet.send." + k + ".us_p50", "us"},
			metricDef{"tcpnet.send." + k + ".us_p99", "us"})
	}
	return append(defs,
		metricDef{"tcpnet.fabric_us_per_rpc", "us"},
		metricDef{"tcpnet.frames_per_write", "frame/write"},
		metricDef{"tcpnet.writes_per_token", "write/token"},
		metricDef{"tcpnet.spills", "count"},
		metricDef{"tcpnet.dials", "count"},
		metricDef{"wire.bytes_per_token", "B/token"},
		metricDef{"wire.bytes_per_frame", "B/frame"},
		metricDef{"adapt.size_p50", "token/rpc"},
		metricDef{"adapt.adjustments", "count"},
		metricDef{"core.wire_hops_per_token", "hop/token"},
		metricDef{"core.lookups_per_token", "lookup/token"},
		metricDef{"core.lookup_hops_per_token", "hop/token"},
		metricDef{"core.entry_tries_per_token", "try/token"},
		metricDef{"core.nbr_cache_hit_ratio", "ratio"},
		metricDef{"core.maintain_ms_p50", "ms"},
		metricDef{"core.maintain_ms_p99", "ms"},
		metricDef{"core.membership_ms_p50", "ms"},
		metricDef{"core.splits_per_step", "split/step"},
		metricDef{"core.merges_per_step", "merge/step"},
		metricDef{"core.moves_per_step", "move/step"},
		metricDef{"chord.lcache_hit_ratio", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"obs.reconcile_gap_pct", "%"},
		metricDef{"obs.spans", "count"},
	)
}()

var knownMetrics = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		m[d.name] = true
	}
	return m
}()

// metrics holds measured values by metric name.
type metrics map[string]float64

// set records a value. Setting a name no list declares is a bug in this
// program, so it panics rather than printing an undeclared metric.
func (m metrics) set(name string, v float64) {
	if !knownMetrics[name] {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m[name] = v
}

// export renders the metrics of defs in the result object's shape; a
// metric nothing measured reads 0.
func (m metrics) export(defs []metricDef) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio[A, B ~int | ~int64 | ~uint64 | ~float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); 0 for none. It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// result is one invocation's outcome.
type result struct {
	metrics   metrics
	attempted uint64 // client calls plus structural operations
	failed    uint64 // of those, the ones that returned an error
	gateErrs  []error
	main      *phase // the phase the end-to-end or per-layer metrics come from
}

// stamp describes the host and the settings a result was measured with.
func (r *result) stamp(wl *workload, cfg config, trace int) map[string]any {
	ph := r.main
	return map[string]any{
		"workload":        wl.name,
		"seed":            cfg.seed,
		"seconds":         cfg.dur.Seconds(),
		"trace":           trace,
		"num_cpu":         runtime.NumCPU(),
		"host_steal":      ratio(ph.stolen, ph.hostTicks),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"fabric":          wl.fabric,
		"retry":           wl.retryString(),
		"clients":         cfg.clients,
		"calls":           ph.calls,
		"call_samples":    ph.lat.n,
		"latency_windows": len(ph.p50s),
		"call_p99_us":     median(ph.p99s) / 1e3,
		"tokens":          ph.tokens,
		"tokens_per_s":    ratio(ph.tokens, ph.wall.Seconds()),
		"ops":             ph.ops.attempted,
		"failed_share":    ratio(r.failed, r.attempted),
	}
}
