package netsim

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// soakSeed runs one chaos seed and returns an error describing any
// violated property, so seeds can fan out across the parallel pool.
func soakSeed(seed int) error {
	const (
		hosts   = 8
		pkts    = 64
		horizon = 200 * sim.Microsecond
	)
	plan := faults.RandomPlan(sim.NewRNG(uint64(seed)+0x50A5), hosts, horizon)
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("generated plan invalid: %v", err)
	}
	// A generous budget: chaos plans can stack a crash window on a
	// lossy link, and the soak asserts eventual completion, not speed.
	rec := faults.DefaultRecovery()
	rec.MaxRetries = 64
	cfg := faultyConfig(hosts, plan, &rec)
	var sw SwitchModel = echoSwitch{}
	switch {
	case plan.SwitchCrashAt > 0:
		// A quarter of random plans kill the switch; those runs get
		// a warm standby so completion survives the failover (a standby
		// excludes a service rate).
		cfg.Standby = echoSwitch{}
	case seed%2 == 1:
		// Odd seeds give the switch a service rate of one packet per
		// 2 µs, twice the offered load, so faults hit a standing input
		// queue.
		cfg.ServiceRatePPS = 5e5
		sw = &busyCountingSwitch{costEach: 1}
	}
	n, err := New(cfg, sw)
	if err != nil {
		return err
	}
	n.Tracker().Expect(1, pkts)
	for i := 0; i < pkts; i++ {
		src := i % hosts
		n.SendAt(src, rawPkt(src, (i+1)%hosts, 1), sim.Time(i)*sim.Microsecond)
	}
	n.Run()
	if errs := n.Errors(); len(errs) != 0 {
		return fmt.Errorf("plan %+v\nerrors: %v\nledger: %+v", plan, errs, n.Ledger())
	}
	if !n.Tracker().Done(1) {
		return fmt.Errorf("coflow incomplete\nplan %+v\nstatus %+v\nledger %+v",
			plan, n.Tracker().Status(1), n.Ledger())
	}
	if err := n.CheckConservation(); err != nil {
		return fmt.Errorf("conservation: %v", err)
	}
	return nil
}

// TestChaosSoak throws randomly-generated fault plans (loss, corruption,
// link-down windows, host crashes, switch stalls) at the network with
// recovery enabled and asserts the two properties the fault plane
// guarantees: the conservation ledger balances (auto-asserted by Run) and
// the coflow completes despite everything the plan did to it. Odd seeds
// without a switch crash also model the switch's service rate, so the
// faults land on packets waiting in its input queue.
//
// Seeds fan out across the parallel worker pool — each seed builds its own
// network, so seeds share nothing. Short mode runs a handful of seeds; set
// SOAK_SEEDS to widen the sweep (`make soak` runs 200) and PARALLEL to set
// the pool width (default: NumCPU).
func TestChaosSoak(t *testing.T) {
	seeds := 8
	if !testing.Short() {
		seeds = 32
	}
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad SOAK_SEEDS %q", s)
		}
		seeds = v
	}
	workers := runtime.NumCPU()
	if s := os.Getenv("PARALLEL"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad PARALLEL %q", s)
		}
		workers = v
	}

	pts := make([]parallel.Point, seeds)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		pts[seed] = parallel.Point{
			Name: fmt.Sprintf("seed %d", seed),
			Run:  func() error { return soakSeed(seed) },
		}
	}
	if err := parallel.Run(pts, parallel.Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
}
