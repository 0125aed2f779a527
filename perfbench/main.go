// Command perfbench is the repository benchmark. It runs one named
// workload against the counting network for a fixed wall time, checks
// that the counts the network produced are correct, and prints every
// metric by name with its unit. The last line of standard output is the
// result object; the line before it stamps the host and the settings.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tcp-token --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the workload twice, untraced and then traced, and prints the
// per-layer metrics. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the workload and prints the result. It returns
// the process exit code: 0 when the run passed its correctness gates, 1
// when it failed them or could not run, 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the arrival sequences, the schedules and the network")
	seconds := fs.Float64("seconds", 10, "measured wall time of each phase, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to; empty keeps them in memory only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		clients: runtime.NumCPU(),
	}

	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(wl, cfg)
	} else {
		res, err = runTraced(wl, cfg, *spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, g := range res.gateErrs {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %v\n", wl.name, g)
	}
	stamp := res.stamp(wl, cfg, *trace)
	if err := writeJSONLine(stdout, map[string]any{"stamp": stamp}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEndDefs
	if *trace == 1 {
		defs = perLayerDefs
	}
	out := map[string]any{
		"correct":   len(res.gateErrs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics.export(defs),
	}
	if err := writeJSONLine(stdout, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.gateErrs) > 0 {
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
