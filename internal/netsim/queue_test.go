package netsim

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// backlogConfig puts 4 hosts on fast links in front of a switch serving
// 1 Mpps (1 µs per traversal). The 5 µs propagation delay means each
// arrival event is posted more than one service slot before it fires, so
// an arrival can land on the instant the switch frees ahead of the
// service event in the engine's tie order.
func backlogConfig() Config {
	return Config{Hosts: 4, LinkGbps: 10000, PropDelay: 5 * sim.Microsecond, ServiceRatePPS: 1e6}
}

const backlogPkts = 240

// sendBacklog sends backlogPkts equal-size packets of coflow 1, one every
// 10 ns round-robin over the hosts, and returns them in send order. They
// all reach the switch within 2.4 µs of the first, which serves one per
// microsecond, so the input queue builds to over 200 packets.
func sendBacklog(n *Network) []*packet.Packet {
	sent := make([]*packet.Packet, 0, backlogPkts)
	for i := 0; i < backlogPkts; i++ {
		p := rawPkt(i%4, (i+1)%4, 1)
		n.SendAt(i%4, p, sim.Time(i)*10*sim.Nanosecond)
		sent = append(sent, p)
	}
	return sent
}

// runBacklog sends the backlog plus one late packet timed to arrive
// exactly when the switch frees after 100 service slots, with about 140
// packets still waiting. Every packet has the same wire length, so the
// late packet, sent 100 µs after the first, arrives 100 µs after it too.
func runBacklog(n *Network) []*packet.Packet {
	sent := sendBacklog(n)
	late := rawPkt(3, 0, 1)
	n.SendAt(3, late, 100*sim.Microsecond)
	n.Run()
	return append(sent, late)
}

// TestServiceQueueFIFOAndEventCount pins the switch input queue: packets
// are served in arrival order, including one that lands exactly on a free
// instant while others wait (it goes behind them), and the engine fires a
// constant number of events per packet however deep the queue gets.
func TestServiceQueueFIFOAndEventCount(t *testing.T) {
	n, err := New(backlogConfig(), &busyCountingSwitch{costEach: 1})
	if err != nil {
		t.Fatal(err)
	}
	var order []*packet.Packet
	n.OnDeliver = func(_ int, p *packet.Packet, _ sim.Time) { order = append(order, p) }
	sent := runBacklog(n)
	if errs := n.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(order) != len(sent) {
		t.Fatalf("delivered %d packets, sent %d", len(order), len(sent))
	}
	for i := range sent {
		if order[i] != sent[i] {
			late := slices.Index(order, sent[len(sent)-1])
			t.Fatalf("delivery %d is not the %d-th arrival; the late arrival was served %d-th of %d",
				i, i, late, len(sent))
		}
	}
	perPkt := float64(n.Engine().Fired()) / float64(len(sent))
	if perPkt > 6 {
		t.Errorf("engine fired %.2f events per packet, want ≤ 6 (one service event per queued packet)", perPkt)
	}
}

// TestServiceQueueAllocs pins allocations per packet for a whole backlog
// run (network build, packets, sends, run). The queue posts one prebound
// service callback per packet, so the count stays flat in the backlog
// depth: about 7.2 per packet, 8.2 under the race detector. A closure per
// waiting packet per service slot would cost over 100.
func TestServiceQueueAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		n, err := New(backlogConfig(), &busyCountingSwitch{costEach: 1})
		if err != nil {
			t.Fatal(err)
		}
		runBacklog(n)
	})
	if perPkt := allocs / (backlogPkts + 1); perPkt > 10 {
		t.Errorf("%.2f allocs per packet on a %d-deep backlog, want ≤ 10", perPkt, backlogPkts)
	}
}

// TestServiceQueueFaultsAgainstBacklog runs stall windows and switch
// crashes while packets wait in the input queue, with and without
// recovery. Every packet must end delivered or booked as a drop, and the
// conservation ledger must balance. A stall holds the whole queue, and
// StallDeferrals counts each held arrival once per stall: with every send
// before the stall ends, that is exactly the packets served after it.
func TestServiceQueueFaultsAgainstBacklog(t *testing.T) {
	const (
		stallFrom = 60 * sim.Microsecond
		stallTo   = 90 * sim.Microsecond
	)
	cases := []struct {
		name    string
		stall   bool
		crashAt sim.Time
	}{
		{"stall", true, 0},
		{"crash", false, 120 * sim.Microsecond},
		{"crash-in-stall", true, 75 * sim.Microsecond},
	}
	for _, tc := range cases {
		for _, withRec := range []bool{false, true} {
			name := tc.name
			if withRec {
				name += "/recovery"
			}
			t.Run(name, func(t *testing.T) {
				plan := &faults.Plan{Seed: 3, SwitchCrashAt: tc.crashAt}
				if tc.stall {
					plan.SwitchStall = []faults.Window{{From: stallFrom, To: stallTo}}
				}
				cfg := backlogConfig()
				cfg.Faults = plan
				if withRec {
					rec := faults.DefaultRecovery()
					rec.MaxRetries = 2
					if tc.crashAt == 0 {
						// Long enough that no queued packet times out, so
						// every held arrival is an original.
						rec.Timeout = rec.MaxTimeout
					}
					cfg.Recovery = &rec
				}
				n, err := New(cfg, &busyCountingSwitch{costEach: 1})
				if err != nil {
					t.Fatal(err)
				}
				var order []*packet.Packet
				var servedAfterStall uint64
				n.OnDeliver = func(_ int, p *packet.Packet, now sim.Time) {
					order = append(order, p)
					if now >= stallTo {
						servedAfterStall++
					}
				}
				sent := sendBacklog(n)
				// Fresh arrivals during the stall are held one by one and
				// join the queue behind the packets already waiting.
				for i := 0; i < 4; i++ {
					p := rawPkt(i, (i+2)%4, 1)
					n.SendAt(i, p, stallFrom+sim.Time(i+1)*sim.Microsecond)
					sent = append(sent, p)
				}
				n.Run()
				if errs := n.Errors(); len(errs) != 0 {
					t.Fatalf("errors: %v", errs)
				}
				if err := n.CheckConservation(); err != nil {
					t.Fatal(err)
				}
				st := n.Tracker().Status(1)
				if st.SentPkts != len(sent) || st.DeliverPkts+st.DroppedPkts != len(sent) {
					t.Fatalf("sent %d: tracker %+v", len(sent), *st)
				}
				for i := range order {
					if order[i] != sent[i] {
						t.Fatalf("delivery %d out of arrival order", i)
					}
				}
				led := n.Ledger()
				switch {
				case tc.crashAt == 0:
					if st.DeliverPkts != len(sent) {
						t.Fatalf("delivered %d of %d without a crash", st.DeliverPkts, len(sent))
					}
					if led.StallDeferrals != servedAfterStall {
						t.Errorf("StallDeferrals = %d, want %d (each held arrival once)",
							led.StallDeferrals, servedAfterStall)
					}
				default:
					if st.DroppedPkts == 0 || led.CrashDrops == 0 {
						t.Fatalf("crash dropped nothing: tracker %+v, ledger %+v", *st, led)
					}
				}
				if tc.stall && led.StallDeferrals == 0 {
					t.Error("the stall held nothing")
				}
			})
		}
	}
}

// TestServiceQueueOneQueueingSpanPerWait checks the span tiling of the
// input queue: eight packets reach the switch at once, packet k waits k
// service slots, and its wait is one span.queueing segment of exactly k
// microseconds, not one segment per slot. The attribution still sums to
// the CCT to the picosecond.
func TestServiceQueueOneQueueingSpanPerWait(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
	cfg := DefaultConfig(8)
	cfg.ServiceRatePPS = 1e6
	const hosts = 8
	n := runUnderHub(t, tel, cfg, &busyCountingSwitch{costEach: 1}, func(n *Network) {
		n.Tracker().Expect(4, hosts)
		for h := 0; h < hosts; h++ {
			n.SendAt(h, rawPkt(h, (h+1)%hosts, 4), 0)
		}
		n.Run()
	})
	if errs := n.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	perSpan := map[uint64]int{}
	var waits []sim.Time
	for _, ev := range tel.Tracer.Events() {
		if ev.Cat == "span" && ev.Name == "span.queueing" {
			perSpan[ev.Args["span"].(uint64)]++
			waits = append(waits, ev.Dur)
		}
	}
	for id, c := range perSpan {
		if c != 1 {
			t.Errorf("packet span %d has %d queueing segments, want 1", id, c)
		}
	}
	slices.Sort(waits)
	want := make([]sim.Time, hosts-1)
	for k := range want {
		want[k] = sim.Time(k+1) * sim.Microsecond
	}
	if !slices.Equal(waits, want) {
		t.Errorf("queueing segments %v, want one per waiting packet: %v", waits, want)
	}
	bd, ok := n.Attribution(4)
	if !ok {
		t.Fatal("no attribution")
	}
	if got, want := bd.Sum(), n.Tracker().Status(4).CCT(); got != want {
		t.Errorf("attribution sums to %v, CCT is %v", got, want)
	}
}

// TestPerfMeterCountsEveryEvent checks that Run folds the perf meter's
// unfinished tail: the plane's event count equals the engine's, even for
// a run far shorter than one meter window.
func TestPerfMeterCountsEveryEvent(t *testing.T) {
	p := perf.Enable()
	defer perf.Disable()
	n, err := New(DefaultConfig(4), echoSwitch{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.SendAt(i%4, rawPkt(i%4, (i+1)%4, 1), sim.Time(i)*sim.Microsecond)
	}
	n.Run()
	if fired := n.Engine().Fired(); fired >= perf.MeterWindow {
		t.Fatalf("run fired %d events; the test needs fewer than one window", fired)
	}
	if got, want := p.Totals().Events, n.Engine().Fired(); got != want {
		t.Errorf("perf plane counted %d events, engine fired %d", got, want)
	}
}
