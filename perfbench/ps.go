package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// psParams sizes the ps-bottleneck workload: the saturation scenario
// (switch service capacity modelled, so every ingress traversal costs
// switch time) with more workers and a larger model.
type psParams struct {
	Ports, Pipelines int // switch geometry of experiments.DefaultConvergenceConfig
	Workers          int
	ModelSize, Width int // weights per round, weights per packet
	ServiceRatePPS   float64
}

// defaultPS sends 15 × 256/4 = 960 packets per architecture per round.
var defaultPS = psParams{Ports: 16, Pipelines: 4, Workers: 15, ModelSize: 256, Width: 4, ServiceRatePPS: 5e5}

const psCoflow = 41

// countingSwitch is what netsim needs to model service capacity.
type countingSwitch interface {
	netsim.SwitchModel
	IngressTraversals() uint64
}

// timedSwitch records a span around every Process call netsim makes, so a
// traced round splits netsim.run into the engine and the switch.
type timedSwitch struct {
	countingSwitch
	tr   *tracer
	span spanID
}

func (s timedSwitch) Process(p *packet.Packet) ([]*packet.Packet, error) {
	s.tr.begin(s.span)
	out, err := s.countingSwitch.Process(p)
	s.tr.end()
	return out, err
}

// psRun is one architecture's aggregation round, kept for the check.
type psRun struct {
	arch string
	net  *netsim.Network
}

type psBench struct {
	p    psParams
	seed uint64
	runs []psRun // RMT, then ADCP
}

func newPS(p psParams, seed uint64) *psBench { return &psBench{p: p, seed: seed} }

// psRMTConfig and psADCPConfig are the switches experiments.Saturation
// builds (rmtConfig and adcpConfig of the convergence experiment).
func psRMTConfig(p psParams) rmt.Config {
	c := rmt.DefaultConfig()
	c.Ports = p.Ports
	c.Pipelines = p.Pipelines
	c.Pipe.Stages = 6
	c.Pipe.TableEntriesPerStage = 4096
	c.Pipe.RegisterCellsPerStage = 1024
	return c
}

func psADCPConfig(p psParams) core.Config {
	c := core.DefaultConfig()
	c.Ports = p.Ports
	c.DemuxFactor = 2
	c.CentralPipelines = p.Pipelines
	c.EgressPipelines = p.Pipelines
	c.Pipe.Stages = 6
	c.Pipe.TableEntriesPerStage = 4096
	c.Pipe.RegisterCellsPerStage = 1024
	return c
}

func (b *psBench) round(tr *tracer) (roundStats, error) {
	var rs roundStats
	p := b.p
	ps := apps.PSConfig{Workers: p.Workers, ModelSize: p.ModelSize, Width: p.Width}
	m0 := memNow()
	var rsw *rmt.Switch
	var csw *core.Switch
	var events uint64
	b.runs = b.runs[:0]
	for _, arch := range []string{"RMT", "ADCP"} {
		t0 := time.Now()
		var sw countingSwitch
		var err error
		before := memIf(tr)
		if arch == "RMT" {
			tr.begin(spRMTBuild)
			rsw, err = apps.NewParamServerRMT(psRMTConfig(p), ps)
			tr.end()
			sw = rsw
		} else {
			tr.begin(spCoreBuild)
			csw, err = apps.NewParamServerADCP(psADCPConfig(p), ps)
			tr.end()
			sw = csw
		}
		buildMB := allocSinceMB(tr, before)
		if err != nil {
			return rs, err
		}
		tr.begin(spGen)
		injs, err := workload.ML(workload.MLParams{
			CoflowID: psCoflow, Workers: p.Workers, ModelSize: p.ModelSize,
			ValuesPerPacket: p.Width, Gap: 100 * sim.Nanosecond, Seed: b.seed,
		})
		tr.end()
		if err != nil {
			return rs, err
		}
		var model netsim.SwitchModel = sw
		if tr != nil {
			span := spRMTProc
			if arch == "ADCP" {
				span = spCoreProc
			}
			model = timedSwitch{countingSwitch: sw, tr: tr, span: span}
		}
		netCfg := netsim.DefaultConfig(p.Ports)
		netCfg.ServiceRatePPS = p.ServiceRatePPS
		tr.begin(spNetNew)
		n, err := netsim.New(netCfg, model)
		tr.end()
		if err != nil {
			return rs, err
		}
		t1 := time.Now()
		m1 := memNow()

		t2 := time.Now()
		tr.begin(spNetRun)
		n.Tracker().Expect(psCoflow, p.ModelSize/p.Width*p.Workers)
		for _, inj := range injs {
			n.SendAt(inj.Src, inj.Pkt, inj.At)
		}
		n.Run()
		tr.end()
		t3 := time.Now()
		m2 := memNow()

		rs.setup += t1.Sub(t0)
		rs.sim += t3.Sub(t2)
		rs.mallocs += m2.Mallocs - m1.Mallocs
		rs.pkts += n.Injected()
		events += n.Engine().Fired()
		b.runs = append(b.runs, psRun{arch: arch, net: n})
		if tr != nil {
			if rs.layer == nil {
				rs.layer = map[string]float64{}
			}
			if arch == "RMT" {
				rs.layer["rmt.build_alloc_mb"] = buildMB
			} else {
				rs.layer["core.build_alloc_mb"] = buildMB
			}
		}
	}
	rs.wall = rs.setup + rs.sim
	rs.allocB = memNow().TotalAlloc - m0.TotalAlloc
	if tr != nil {
		for k, v := range switchLayers(csw, rsw, int(b.runs[1].net.Injected()), int(b.runs[0].net.Injected())) {
			rs.layer[k] = v
		}
		rs.layer["sim.events"] = float64(events)
		rs.layer["sim.events_per_pkt"] = float64(events) / float64(rs.pkts)
	}
	return rs, nil
}

func (b *psBench) check(rs *roundStats) string {
	first := ""
	var cct [2]sim.Time
	for i, r := range b.runs {
		rs.units++
		msg := checkPSRun(r.net, b.p, b.seed)
		if msg == "" {
			cct[i] = r.net.Tracker().Status(psCoflow).CCT()
		}
		if msg == "" && i == 1 && cct[1] >= cct[0] {
			msg = fmt.Sprintf("ADCP CCT %v not below RMT CCT %v", cct[1], cct[0])
		}
		if msg != "" {
			rs.failed++
			if first == "" {
				first = r.arch + ": " + msg
			}
		}
	}
	return first
}

// checkPSRun checks one aggregation round: the coflow completed, the
// network reported no errors (so the conservation ledger held), and every
// worker received every weight equal to workload.MLExpectedSum.
func checkPSRun(n *netsim.Network, p psParams, seed uint64) string {
	if errs := n.Errors(); len(errs) > 0 {
		return fmt.Sprintf("%d network errors, first: %v", len(errs), errs[0])
	}
	st := n.Tracker().Status(psCoflow)
	if st == nil || !st.Done {
		return "coflow did not complete"
	}
	var d packet.Decoded
	for w := 0; w < p.Workers; w++ {
		got := make(map[int]uint32, p.ModelSize)
		for _, pkt := range n.Host(w).Received {
			if err := d.DecodePacket(pkt); err != nil {
				return fmt.Sprintf("worker %d: %v", w, err)
			}
			for i, v := range d.ML.Values {
				got[int(d.ML.Base)+i] = v
			}
		}
		if len(got) != p.ModelSize {
			return fmt.Sprintf("worker %d received %d of %d weights", w, len(got), p.ModelSize)
		}
		for idx, v := range got {
			if want := workload.MLExpectedSum(seed, p.Workers, idx); v != want {
				return fmt.Sprintf("worker %d weight %d = %d, want %d", w, idx, v, want)
			}
		}
	}
	return ""
}
