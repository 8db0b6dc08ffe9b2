// Command benchcheck compares two metrics-snapshot JSON documents (the
// adcp-metrics/1 format written by `adcpsim -metrics` and by the benchmark
// harness's BENCH_JSON hook) and fails when any series present in the
// baseline drifted beyond a relative tolerance, or disappeared. CI runs it
// against the committed bench_baseline.json to flag experiment-headline
// regressions early; the experiments are deterministic, so any drift at
// all means the model's numbers changed.
//
// Series named perf.* are the exception: they carry wall-clock performance
// numbers (events/s, allocs/event) that vary run to run, so they get
// directional gates with their own, much looser tolerance (-perf-tol)
// instead of the exact band. Throughput series (suffix "_per_s") only fail
// when they FALL below the baseline band — getting faster is never a
// regression — and cost series only fail when they RISE above it: per-event
// costs (containing "per_event") and deterministic allocation counts
// (containing "_bytes_per_" or "_allocs_per_", such as the switch-build
// series perf.build.adcp_bytes_per_switch). Other perf.* series are
// informational and never gate.
//
// Usage:
//
//	benchcheck -baseline bench_baseline.json -current BENCH.json [-tol 0.20] [-perf-tol 0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "bench_baseline.json", "committed baseline snapshot")
	currentPath := fs.String("current", "", "freshly produced snapshot to check")
	tol := fs.Float64("tol", 0.20, "allowed relative drift per series")
	perfTol := fs.Float64("perf-tol", 0.5, "allowed relative drift for wall-clock perf.* series (directional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(stderr, "benchcheck: -current is required")
		return 2
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}

	regressions := compare(base, cur, *tol, *perfTol)
	fmt.Fprintf(stdout, "benchcheck: %d baseline series, %d current series, tol %.0f%% (perf %.0f%%)\n",
		len(base.Metrics), len(cur.Metrics), *tol*100, *perfTol*100)
	if len(regressions) == 0 {
		fmt.Fprintln(stdout, "benchcheck: OK")
		return 0
	}
	for _, r := range regressions {
		fmt.Fprintln(stderr, "benchcheck: "+r)
	}
	fmt.Fprintf(stderr, "benchcheck: %d series regressed\n", len(regressions))
	return 1
}

func load(path string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	raw, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != telemetry.SnapshotSchema {
		return snap, fmt.Errorf("%s: schema %q, want %q", path, snap.Schema, telemetry.SnapshotSchema)
	}
	return snap, nil
}

// seriesKey identifies a series across documents: name plus sorted labels.
func seriesKey(m telemetry.MetricSnapshot) string {
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(m.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%s}", k, m.Labels[k])
	}
	return b.String()
}

// gate classifies how a baseline series is compared against the current
// run.
type gate int

const (
	gateExact   gate = iota // deterministic series: symmetric relative band
	gateFloor               // throughput: regression only when it falls
	gateCeiling             // per-event cost: regression only when it rises
	gateNone                // informational wall-clock series: never gates
)

// gateFor picks the gate from the series name. Deterministic exp.* series
// keep the exact band; wall-clock perf.* series — and the engine
// micro-benchmark's sim.* series (sim.events_per_s, sim.allocs_per_event,
// recorded by BenchmarkEngine) — gate directionally on the quantities the
// ROADMAP's speed items move (events/s up; allocs/event and bytes or
// allocations per built switch down) and are otherwise informational.
// Allocation counts are deterministic, so their ceilings hold on any
// machine.
func gateFor(name string) gate {
	if !strings.HasPrefix(name, "perf.") && !strings.HasPrefix(name, "sim.") {
		return gateExact
	}
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return gateFloor
	case strings.Contains(name, "per_event"),
		strings.Contains(name, "_bytes_per_"), strings.Contains(name, "_allocs_per_"):
		return gateCeiling
	default:
		return gateNone
	}
}

// compare returns one message per baseline series that is missing from cur
// or whose value drifted beyond its gate's tolerance (tol for exact
// series, perfTol for directional perf.* series). Series only in cur are
// fine — new instrumentation must not fail the gate.
func compare(base, cur telemetry.Snapshot, tol, perfTol float64) []string {
	curBy := make(map[string]telemetry.MetricSnapshot, len(cur.Metrics))
	for _, m := range cur.Metrics {
		curBy[seriesKey(m)] = m
	}
	var out []string
	for _, bm := range base.Metrics {
		k := seriesKey(bm)
		g := gateFor(bm.Name)
		if g == gateNone {
			continue
		}
		cm, ok := curBy[k]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from current run", k))
			continue
		}
		switch g {
		case gateExact:
			if !within(bm.Value, cm.Value, tol) {
				out = append(out, fmt.Sprintf("%s: baseline %g, current %g (drift %.1f%%, tol %.0f%%)",
					k, bm.Value, cm.Value, drift(bm.Value, cm.Value)*100, tol*100))
			}
		case gateFloor:
			if cm.Value < bm.Value*(1-perfTol) {
				out = append(out, fmt.Sprintf("%s: fell to %g from baseline %g (floor %g at perf-tol %.0f%%)",
					k, cm.Value, bm.Value, bm.Value*(1-perfTol), perfTol*100))
			}
		case gateCeiling:
			if cm.Value > bm.Value*(1+perfTol) {
				out = append(out, fmt.Sprintf("%s: rose to %g from baseline %g (ceiling %g at perf-tol %.0f%%)",
					k, cm.Value, bm.Value, bm.Value*(1+perfTol), perfTol*100))
			}
		}
	}
	return out
}

// within reports whether cur is inside the relative tolerance band around
// base. A zero baseline cannot anchor a relative band, so it degrades to an
// absolute check against tol itself.
func within(base, cur, tol float64) bool {
	if math.IsNaN(base) || math.IsNaN(cur) {
		return math.IsNaN(base) == math.IsNaN(cur)
	}
	if base == 0 {
		return math.Abs(cur) <= tol
	}
	return drift(base, cur) <= tol
}

func drift(base, cur float64) float64 {
	if base == 0 {
		return math.Abs(cur)
	}
	return math.Abs(cur-base) / math.Abs(base)
}
