package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

func shortConfig() config {
	return config{seed: 1, dur: 500 * time.Millisecond, clients: 2}
}

// The traced fabric must leave the cluster's at-most-once delivery and
// server-side RPC observation exactly as they are over the bare fabric.
func TestTracedFabricKeepsDedupAndRPCObs(t *testing.T) {
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	rec := newRecorder(1)
	cut, err := tree.UniformCut(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.New(64, cut, dist.WithTransport(&tracedFabric{inner: tn, rec: rec}), dist.WithRetry(e31Retry))
	if err != nil {
		t.Fatal(err)
	}
	ro := obs.NewRPCObs(obs.RPCObsConfig{})
	if !cl.InstrumentRPC(ro) {
		t.Fatal("InstrumentRPC did not reach the fabric")
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Inject(i % 64); err != nil {
			t.Fatal(err)
		}
	}
	if tn.DedupEntries() == 0 {
		t.Fatal("receiver dedup is off behind the traced fabric")
	}
	if ro.LatencyEWMA(wire.KindArrive) <= 0 {
		t.Fatal("RPC observer saw no arrive handler")
	}
	_, cs := cl.NetStats()
	s := rec.summarize()
	arrive := kindIndex(wire.KindArrive)
	if got := uint64(len(s.sends[arrive])); got != cs.Calls || s.handles[arrive] != cs.Calls {
		t.Fatalf("recorded %d arrive sends and %d handlers, client made %d calls", got, s.handles[arrive], cs.Calls)
	}
	if s.fabricSends != cs.Calls || s.fabricNs <= 0 {
		t.Fatalf("fabric time over %d sends is %dns", s.fabricSends, s.fabricNs)
	}
}

func TestShortRunsPassGates(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			// Pace the stepper ten times faster, so that even a short run
			// under the race detector makes structural steps.
			wl := *full
			wl.every = (wl.every + 9) / 10
			res, err := runEndToEnd(&wl, shortConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.gateErrs) > 0 || res.failed > 0 {
				t.Fatalf("gates: %v, %d of %d failed", res.gateErrs, res.failed, res.attempted)
			}
			for _, d := range endToEndDefs {
				if v := res.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			if wl.every > 0 && res.main.ops.attempted == 0 {
				t.Error("the stepper made no structural step")
			}

			res, err = runTraced(&wl, shortConfig(), "")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.gateErrs) > 0 {
				t.Fatalf("traced gates: %v", res.gateErrs)
			}
			m := res.metrics
			switch full {
			case &tcpToken:
				if got := m["dist.rpcs_per_token"]; got != 6 {
					t.Errorf("rpcs per token %v, want 6 (depth of the level-2 cut)", got)
				}
				if got := m["obs.reconcile_gap_pct"]; got > 5 {
					t.Errorf("self + fabric + handler is %.1f%% off the call time", got)
				}
			case &coreChurn:
				if m["core.wire_hops_per_token"] <= 0 || m["core.maintain_ms_p50"] <= 0 {
					t.Errorf("core layers not measured: %v", m)
				}
			}
		})
	}
}

func TestDuplicateValueFailsGate(t *testing.T) {
	var s valueSet
	s.add(7)
	s.add(1<<valueChunkBits + 7)
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	s.add(7)
	if s.check() == nil {
		t.Fatal("a repeated value passed")
	}

	cfg := shortConfig()
	cfg.clients = 1
	ci, err := newCoreInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ci.check(); err != nil {
		t.Fatal(err)
	}
	tr, err := ci.clients[0].InjectAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ci.values.add(tr.Value)
	ci.done.Add(1)
	ci.values.add(tr.Value) // the same value handed out a second time
	if ci.check() == nil {
		t.Fatal("the core gate passed a duplicated value")
	}
}

func TestSameSeedSameSequences(t *testing.T) {
	draw := func(seed uint64, client, maxRun int) []int {
		a := newArrivals(seed, client, distWidth, maxRun)
		out := make([]int, 2000)
		for i := range out {
			out[i] = a.next()
		}
		return out
	}
	for _, maxRun := range []int{1, burstMaxRun} {
		if !slices.Equal(draw(7, 0, maxRun), draw(7, 0, maxRun)) {
			t.Fatal("same seed, different arrivals")
		}
		if slices.Equal(draw(7, 0, maxRun), draw(8, 0, maxRun)) || slices.Equal(draw(7, 0, maxRun), draw(7, 1, maxRun)) {
			t.Fatal("another seed or client gave the same arrivals")
		}
	}

	// The churn schedule: the same seed removes the same nodes.
	churn := func(seed uint64) []uint64 {
		cfg := shortConfig()
		cfg.seed, cfg.clients = seed, 1
		ci, err := newCoreInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := newOpLog(nil)
		for i := uint64(0); i < 6; i++ {
			if err := ci.step(i, ops); err != nil {
				t.Fatal(err)
			}
		}
		var ids []uint64
		for _, id := range ci.n.Nodes() {
			ids = append(ids, uint64(id))
		}
		slices.Sort(ids)
		return ids
	}
	if !slices.Equal(churn(3), churn(3)) {
		t.Fatal("same seed, different churn")
	}
	if slices.Equal(churn(3), churn(4)) {
		t.Fatal("another seed gave the same churn")
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v) * time.Microsecond / 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000 * 1000 // ns
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
}

// The printed result must carry exactly the metrics BENCHMARK.json
// declares, with their units.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for trace, declared := range [][]def{bj.EndToEnd, bj.PerLayer} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "core-churn", "--seed", "5", "--seconds", "0.2", "--trace", strconv.Itoa(trace), "--spans", ""}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed *uint64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		var keys map[string]json.RawMessage
		last := []byte(lines[len(lines)-1])
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 {
			t.Errorf("result keys %v, want correct, attempted, failed, metrics", keys)
		}
		if err := json.Unmarshal(last, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == nil || *res.Attempted == 0 || res.Failed == nil {
			t.Errorf("trace %d: result %s", trace, last)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("trace %d: %d metrics printed, %d declared", trace, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace %d: metric %s printed as %+v, declared unit %q", trace, d.Name, got, d.Unit)
			}
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tcp-token", "--trace", "2"},
		{"--workload", "tcp-token", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
