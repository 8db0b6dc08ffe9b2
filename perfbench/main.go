// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator for a fixed host-time budget, checks
// that every simulated result is correct, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.py, which compiles it and cmd/adcpsim
// inside the checkout; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundStats measures one unit of work: set-up (switch construction and
// input generation) followed by simulation. Verification runs after the
// round and is not timed. Durations are scaled to the reference host speed
// once the round is over.
type roundStats struct {
	traced  bool
	speed   float64       // host speed before the round (see calib.go)
	wall    time.Duration // set-up + simulation
	setup   time.Duration
	sim     time.Duration
	pkts    uint64  // switch packets simulated
	mallocs uint64  // heap allocations during simulation
	allocB  uint64  // bytes allocated during set-up and simulation
	rssMB   float64 // peak resident set during the round
	units   int     // checked results: KV replies, aggregation rounds, experiments
	failed  int
	// layer holds this round's per-layer values (traced rounds only),
	// keyed by the per-layer metric name.
	layer map[string]float64
}

// bench is one named benchmark workload.
type bench interface {
	// round runs one unit of work and fills the timing and count fields.
	// It records spans on tr when tr is non-nil.
	round(tr *tracer) (roundStats, error)
	// check verifies the outputs of the round just run, filling units and
	// failed, and returns a description of the first failure.
	check(rs *roundStats) string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-zipf, ps-bottleneck or exp-all")
	seed := fs.Uint64("seed", 1, "input seed (exp-all pins its own seeds and ignores it)")
	seconds := fs.Float64("seconds", 10, "host seconds to keep running rounds")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as a Chrome trace to this file")
	adcpsim := fs.String("adcpsim", "", "adcpsim binary built from the same source (exp-all compares its tables against it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newBench(*name, *seed, *adcpsim)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rounds, err := drive(w, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.units
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if *trace == 1 {
		res.Metrics = layerMetrics(rounds)
	} else {
		res.Metrics = endToEnd(rounds)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s, seed %d, %d rounds\n", *name, *seed, len(rounds))
	for _, n := range names {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if *trace != 1 {
		// failed_frac is 0 on a correct run, so it is printed for people
		// but carried in the JSON by "attempted" and "failed".
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "1")
	}
	var speeds []float64
	for _, r := range rounds {
		speeds = append(speeds, r.speed)
	}
	// Times above are scaled by this factor; divide by it for raw host time.
	fmt.Fprintf(stdout, "%-30s %14.6g %s\n", "host_speed", median(speeds), "1")
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func newBench(name string, seed uint64, adcpsim string) (bench, error) {
	switch name {
	case "kv-zipf":
		return newKV(defaultKV, seed), nil
	case "ps-bottleneck":
		return newPS(defaultPS, seed), nil
	case "exp-all":
		return newExpAll(adcpsim)
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-zipf, ps-bottleneck or exp-all)", name)
}

// drive runs rounds until the budget is spent (at least two, so a traced
// run has one traced and one untraced round). In a traced run every other
// round is traced; the untraced ones give trace.overhead_ratio its base.
func drive(w bench, budget time.Duration, trace bool, traceOut string, stderr io.Writer) ([]roundStats, error) {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var rounds []roundStats
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		var t *tracer
		if trace && i%2 == 0 {
			t = tr
		}
		var snap []layerTotals
		if t != nil {
			snap = t.snapshot()
		}
		speed := hostSpeed()
		resetPeakRSS()
		t.begin(spRound)
		rs, err := w.round(t)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rs.rssMB = peakRSSMB()
		rs.speed = speed
		rs.wall = scaled(rs.wall, speed)
		rs.setup = scaled(rs.setup, speed)
		rs.sim = scaled(rs.sim, speed)
		if t != nil {
			rs.traced = true
			addTraceLayers(&rs, t.since(snap), speed)
		}
		if msg := w.check(&rs); msg != "" {
			fmt.Fprintf(stderr, "perfbench: round %d: check failed: %s\n", i, msg)
		}
		rounds = append(rounds, rs)
	}
	if tr != nil && traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	return rounds, nil
}

// scaled converts a measured duration to the reference host speed.
func scaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}

// addTraceLayers derives the generic per-layer values of a traced round
// from its span totals: the self time of each layer span, scaled to the
// reference host speed, and the share of the round that no layer span
// covers.
func addTraceLayers(rs *roundStats, d []layerTotals, speed float64) {
	if rs.layer == nil {
		rs.layer = map[string]float64{}
	}
	for i := range d {
		d[i].self = scaled(d[i].self, speed)
		d[i].total = scaled(d[i].total, speed)
	}
	root := d[spRound]
	if root.total > 0 {
		rs.layer["trace.unattributed_frac"] = root.self.Seconds() / root.total.Seconds()
	}
	rs.layer["workload.gen_s"] = d[spGen].self.Seconds()
	rs.layer["netsim.new_s"] = d[spNetNew].self.Seconds()
	rs.layer["netsim.run_s"] = d[spNetRun].self.Seconds()
	if n := d[spCoreBuild].count; n > 0 {
		rs.layer["core.build_ms"] = d[spCoreBuild].self.Seconds() * 1e3 / float64(n)
	}
	if n := d[spRMTBuild].count; n > 0 {
		rs.layer["rmt.build_ms"] = d[spRMTBuild].self.Seconds() * 1e3 / float64(n)
	}
	if n := d[spCoreProc].count; n > 0 {
		rs.layer["core.process_ns_per_pkt"] = float64(d[spCoreProc].self.Nanoseconds()) / float64(n)
	}
	if n := d[spRMTProc].count; n > 0 {
		rs.layer["rmt.process_ns_per_pkt"] = float64(d[spRMTProc].self.Nanoseconds()) / float64(n)
	}
	if run := d[spNetRun].total; run > 0 && rs.layer["sim.events"] > 0 {
		rs.layer["sim.events_per_s"] = rs.layer["sim.events"] / run.Seconds()
	}
	rs.layer["kv.install_ms"] = d[spKVInstall].self.Seconds() * 1e3
	for i, e := range experimentList {
		rs.layer["exp."+e.name+".s"] = d[spExp(i)].self.Seconds()
	}
}

// endToEnd computes the untraced metrics, each the median of its
// per-round values.
func endToEnd(rounds []roundStats) map[string]metric {
	var wall, setup, rate, allocs, allocMB, rss []float64
	for _, r := range rounds {
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, float64(r.pkts)/r.sim.Seconds())
		allocs = append(allocs, float64(r.mallocs)/float64(r.pkts))
		allocMB = append(allocMB, float64(r.allocB)/(1<<20))
		rss = append(rss, r.rssMB)
	}
	return map[string]metric{
		"wall_s":         {median(wall), "s"},
		"setup_s":        {median(setup), "s"},
		"pkts_per_s":     {median(rate), "1/s"},
		"allocs_per_pkt": {median(allocs), "count"},
		"alloc_mb":       {median(allocMB), "MB"},
		"peak_rss_mb":    {median(rss), "MB"},
	}
}

// layerNames lists every per-layer metric with its unit, in report order.
func layerNames() [][2]string {
	ls := [][2]string{
		{"sim.events", "count"}, {"sim.events_per_pkt", "count"}, {"sim.events_per_s", "1/s"},
		{"netsim.new_s", "s"}, {"netsim.run_s", "s"},
		{"core.build_ms", "ms"}, {"rmt.build_ms", "ms"},
		{"core.build_alloc_mb", "MB"}, {"rmt.build_alloc_mb", "MB"},
		{"core.process_ns_per_pkt", "ns"}, {"rmt.process_ns_per_pkt", "ns"},
		{"pipeline.stage_cycles_per_pkt", "count"}, {"pipeline.parse_errors", "count"},
		{"tm.enqueued", "count"}, {"tm.dropped", "count"}, {"tm.peak_kb", "KB"},
		{"rmt.traversals_per_pkt", "count"}, {"rmt.recirc", "count"},
		{"core.central_traversals", "count"}, {"kv.hit_ratio", "1"}, {"kv.install_ms", "ms"},
		{"workload.gen_s", "s"},
	}
	for _, e := range experimentList {
		ls = append(ls, [2]string{"exp." + e.name + ".s", "s"})
	}
	return append(ls, [2]string{"trace.overhead_ratio", "1"}, [2]string{"trace.unattributed_frac", "1"})
}

// layerMetrics reports every per-layer metric as the median of its
// per-round values over the traced rounds (0 where the workload does not
// exercise the layer), plus the tracing overhead: the median traced round
// over the median untraced round.
func layerMetrics(rounds []roundStats) map[string]metric {
	var traced, plain []float64
	vals := map[string][]float64{}
	for _, r := range rounds {
		if !r.traced {
			plain = append(plain, r.wall.Seconds())
			continue
		}
		traced = append(traced, r.wall.Seconds())
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	m := map[string]metric{}
	for _, nu := range layerNames() {
		m[nu[0]] = metric{median(vals[nu[0]]), nu[1]}
	}
	if p := median(plain); p > 0 {
		m["trace.overhead_ratio"] = metric{median(traced) / p, "1"}
	}
	return m
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memNow reads the heap counters. It stops the world briefly, so callers
// keep it out of timed intervals.
func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count, so
// each round's peak can be read on its own. Where /proc/self/clear_refs is
// not writable the peak stays the process's, which only makes the metric
// more pessimistic.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set (VmHWM) since the last
// resetPeakRSS, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
