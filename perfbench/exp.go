package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// expParallelism is the sweep pool width of exp-all: two workers, one per
// host CPU of the reference machine.
const expParallelism = 2

// harnessRepeats is how many times a round sets up the exp-all harness;
// the round reports the mean, because one set-up takes microseconds.
const harnessRepeats = 100

type expEntry struct {
	name string
	run  func(w io.Writer) error
}

// experimentList holds every experiment of `adcpsim -list`, in its order,
// printed exactly as adcpsim's runners print them.
var experimentList = []expEntry{
	{"table1", func(w io.Writer) error { t, _, err := experiments.Table1(); return table(w, t, err) }},
	{"table2", func(w io.Writer) error { t, _ := experiments.Table2(); return table(w, t, nil) }},
	{"table3", func(w io.Writer) error { t, _ := experiments.Table3(); return table(w, t, nil) }},
	{"convergence", func(w io.Writer) error {
		t, _, err := experiments.Convergence(experiments.DefaultConvergenceConfig(), nil)
		return table(w, t, err)
	}},
	{"replication", func(w io.Writer) error { t, _, err := experiments.Replication(nil); return table(w, t, err) }},
	{"walk", func(w io.Writer) error { t, _, err := experiments.Walk(); return table(w, t, err) }},
	{"globalarea", func(w io.Writer) error { t, _, err := experiments.GlobalArea(); return table(w, t, err) }},
	{"keyrate", func(w io.Writer) error { t, _, err := experiments.KeyRate(nil); return table(w, t, err) }},
	{"feasibility", runFeasibility},
	{"tension", func(w io.Writer) error { t, _, err := experiments.Tension(nil); return table(w, t, err) }},
	{"landscape", func(w io.Writer) error { t, _, err := experiments.Landscape(); return table(w, t, err) }},
	{"coflowsched", func(w io.Writer) error {
		t, _, err := experiments.CoflowSched(experiments.DefaultCoflowSchedConfig())
		return table(w, t, err)
	}},
	{"demux", func(w io.Writer) error { t, _, err := experiments.DemuxSweep(nil); return table(w, t, err) }},
	{"buffer", func(w io.Writer) error { t, _, err := experiments.BufferSweep(nil); return table(w, t, err) }},
	{"cachehit", func(w io.Writer) error { t, _, err := experiments.CacheHit(nil, nil); return table(w, t, err) }},
	{"saturation", func(w io.Writer) error { t, _, err := experiments.Saturation(); return table(w, t, err) }},
	{"faults", func(w io.Writer) error { t, _, err := experiments.Faults(nil); return table(w, t, err) }},
	{"failover", func(w io.Writer) error { t, _, err := experiments.Failover(nil, nil); return table(w, t, err) }},
}

func table(w io.Writer, t *stats.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprint(w, t)
	return nil
}

// runFeasibility prints the four §4 tables, blank-line separated.
func runFeasibility(w io.Writer) error {
	t, _, err := experiments.MultiClock(nil)
	if err != nil {
		return err
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w)
	ct, _, _, err := experiments.Congestion(floorplan.DefaultFloorplanParams())
	if err != nil {
		return err
	}
	fmt.Fprint(w, ct)
	fmt.Fprintln(w)
	pt, _, err := experiments.Power()
	if err != nil {
		return err
	}
	fmt.Fprint(w, pt)
	fmt.Fprintln(w)
	pc, _, err := experiments.ParseCost()
	if err != nil {
		return err
	}
	fmt.Fprint(w, pc)
	return nil
}

// expAll runs every experiment in process through experiments.Run, at
// sweep parallelism 2, under a flight-recorder-only telemetry hub: the
// calls `adcpsim -exp all -parallel 2` makes.
type expAll struct {
	ref    map[string]string // adcpsim -exp <id> standard output
	pkts   uint64            // packets hosts injected into simulated networks, per pass
	events uint64            // events those networks' engines fired, per pass

	out  []bytes.Buffer // last pass, for check
	errs []error
}

// newExpAll records the reference tables from the adcpsim binary and
// counts one pass's simulated packets with the metrics registry on.
// Both run before the timed rounds.
func newExpAll(adcpsim string) (*expAll, error) {
	if adcpsim == "" {
		return nil, fmt.Errorf("exp-all needs -adcpsim")
	}
	listed, err := exec.Command(adcpsim, "-list").Output()
	if err != nil {
		return nil, fmt.Errorf("adcpsim -list: %w", err)
	}
	var ids, want []string
	for _, line := range strings.Split(string(listed), "\n") {
		if strings.HasPrefix(line, "  ") {
			ids = append(ids, strings.Fields(line)[0])
		}
	}
	for _, e := range experimentList {
		want = append(want, e.name)
	}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		return nil, fmt.Errorf("adcpsim -list gives %v, the benchmark knows %v", ids, want)
	}
	x := &expAll{
		ref:  map[string]string{},
		out:  make([]bytes.Buffer, len(experimentList)),
		errs: make([]error, len(experimentList)),
	}
	for _, id := range ids {
		out, err := exec.Command(adcpsim, "-exp", id, "-parallel", fmt.Sprint(expParallelism)).Output()
		if err != nil {
			return nil, fmt.Errorf("adcpsim -exp %s: %w", id, err)
		}
		x.ref[id] = string(out)
	}
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Flight: telemetry.NewFlightRecorder(0)}
	x.pass(tel, nil)
	for i, err := range x.errs {
		if err != nil {
			return nil, fmt.Errorf("counting pass: %s: %w", experimentList[i].name, err)
		}
	}
	for _, m := range tel.Metrics.Snapshot().Metrics {
		switch m.Name {
		case "net.injected_pkts":
			x.pkts += uint64(m.Value)
		case "net.engine.fired_events":
			x.events += uint64(m.Value)
		}
	}
	if x.pkts == 0 {
		return nil, fmt.Errorf("counting pass saw no simulated packets")
	}
	return x, nil
}

// pass runs every experiment once under hub tel.
func (x *expAll) pass(tel *telemetry.Telemetry, tr *tracer) {
	prev := experiments.SetParallelism(expParallelism)
	defer experiments.SetParallelism(prev)
	telemetry.WithDefault(tel, func() {
		for i, e := range experimentList {
			x.out[i].Reset()
			tr.begin(spExp(i))
			x.errs[i] = experiments.Run(context.Background(), e.name, 0, func() error { return e.run(&x.out[i]) })
			tr.end()
		}
	})
}

func (x *expAll) round(tr *tracer) (roundStats, error) {
	var rs roundStats
	m0 := memNow()
	t0 := time.Now()
	tr.begin(spExpHarness)
	var tel *telemetry.Telemetry
	for i := 0; i < harnessRepeats; i++ {
		tel = &telemetry.Telemetry{Flight: telemetry.NewFlightRecorder(0)}
	}
	tr.end()
	t1 := time.Now()
	m1 := memNow()

	t2 := time.Now()
	x.pass(tel, tr)
	t3 := time.Now()
	m2 := memNow()

	rs.setup = t1.Sub(t0) / harnessRepeats
	rs.sim = t3.Sub(t2)
	rs.wall = rs.setup + rs.sim
	rs.pkts = x.pkts
	rs.mallocs = m2.Mallocs - m1.Mallocs
	rs.allocB = m2.TotalAlloc - m0.TotalAlloc
	if tr != nil {
		rs.layer = map[string]float64{
			"sim.events":         float64(x.events),
			"sim.events_per_pkt": float64(x.events) / float64(x.pkts),
		}
	}
	return rs, nil
}

func (x *expAll) check(rs *roundStats) string {
	first := ""
	for i, e := range experimentList {
		rs.units++
		msg := ""
		if x.errs[i] != nil {
			msg = x.errs[i].Error()
		} else {
			msg = diffText(x.out[i].String()+"\n", x.ref[e.name])
		}
		if msg != "" {
			rs.failed++
			if first == "" {
				first = e.name + ": " + msg
			}
		}
	}
	return first
}

// diffText describes the first line where got and want differ, or
// returns "" when they are equal.
func diffText(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, adcpsim prints %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, adcpsim prints %d", len(g), len(w))
}
