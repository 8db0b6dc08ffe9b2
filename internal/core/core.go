// Package core implements the paper's primary contribution: the
// Application-Defined Coflow Processor (ADCP) switch architecture (§3,
// Figure 4).
//
// ADCP keeps RMT's line-rate discipline but makes three fundamental
// changes:
//
//  1. A second traffic manager creates a *global partitioned area* of
//     central pipelines between the two TMs (§3.1). The first TM is
//     application-defined: it places coflow data onto central pipelines by
//     hash or range over a data element, and can merge per-flow sorted
//     streams in order. The second TM is a classic scheduler that can
//     forward results to ANY egress port — decoupling where coflow state
//     lives from where results exit (Figure 5).
//  2. Stage memories are array-interconnected (§3.2, Figure 6): the MAUs of
//     a stage match a whole array of values against one shared table in a
//     single traversal — no table replication, no recirculation.
//  3. Ports are demultiplexed 1:m across ingress pipelines instead of
//     multiplexed n:1 (§3.3): pipeline traffic runs at 1/m of port speed,
//     so clocks stay low as port speeds grow (Table 3).
package core

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/tm"
)

// Config describes an ADCP switch.
type Config struct {
	// Ports is the number of front-panel ports.
	Ports int
	// DemuxFactor m splits each port across m ingress pipelines (§3.3).
	// The switch instantiates Ports×m ingress pipelines.
	DemuxFactor int
	// CentralPipelines is the width of the global partitioned area.
	CentralPipelines int
	// EgressPipelines serve the TX side; Ports must divide across them.
	EgressPipelines int
	// PortSpeedGbps is the per-port line rate.
	PortSpeedGbps float64
	// TM1BufferBytes and TM2BufferBytes size the two shared buffers.
	TM1BufferBytes int
	TM2BufferBytes int
	// MaxActiveCoflows, when positive, bounds the switch's coflow state
	// directory. Admitting a packet of a new coflow beyond the bound
	// evicts the least-recently-seen coflow with accounting (the graceful
	// answer to state pressure) instead of erroring; a packet of an
	// evicted coflow readmits it, again with accounting. Zero = unbounded.
	MaxActiveCoflows int
	// TolerateReordering, when set, turns TM1 merge-mode rank regressions
	// (a retransmitted or reordered packet arriving after higher ranks
	// already drained) into counted late drops instead of hard errors —
	// degraded operation on a faulty network rather than a wedged switch.
	TolerateReordering bool
	// Pipe configures every pipeline instance (ingress, central, egress).
	Pipe pipeline.Config
}

// DefaultConfig is a 16-port 800 Gbps ADCP with 1:2 demultiplexing, 8
// central pipelines, and 4 egress pipelines — Table 3's 800 Gbps demux row.
func DefaultConfig() Config {
	return Config{
		Ports:            16,
		DemuxFactor:      2,
		CentralPipelines: 8,
		EgressPipelines:  4,
		PortSpeedGbps:    800,
		TM1BufferBytes:   64 << 20,
		TM2BufferBytes:   64 << 20,
		Pipe:             pipeline.DefaultADCPConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Ports <= 0:
		return fmt.Errorf("core: %d ports", c.Ports)
	case c.DemuxFactor < 1:
		return fmt.Errorf("core: demux factor %d", c.DemuxFactor)
	case c.CentralPipelines <= 0:
		return fmt.Errorf("core: %d central pipelines", c.CentralPipelines)
	case c.EgressPipelines <= 0:
		return fmt.Errorf("core: %d egress pipelines", c.EgressPipelines)
	case c.Ports%c.EgressPipelines != 0:
		return fmt.Errorf("core: %d ports do not divide across %d egress pipelines", c.Ports, c.EgressPipelines)
	case c.TM1BufferBytes <= 0 || c.TM2BufferBytes <= 0:
		return fmt.Errorf("core: TM buffers %d/%d", c.TM1BufferBytes, c.TM2BufferBytes)
	case c.MaxActiveCoflows < 0:
		return fmt.Errorf("core: max active coflows %d", c.MaxActiveCoflows)
	}
	return c.Pipe.Validate()
}

// PartitionFunc is the application-defined placement criterion the first
// TM applies: it maps a finished ingress context to a central pipeline.
// The paper's examples are a hash or range over a data element (e.g. a
// weight ID). A nil PartitionFunc hashes the coflow ID.
type PartitionFunc func(ctx *pipeline.Context) int

// RankFunc optionally gives TM1 merge semantics: packets bound for the
// same central pipeline dequeue in non-decreasing rank order, merging
// per-flow sorted streams (§3.1). Return the packet's flow key and rank.
type RankFunc func(ctx *pipeline.Context) (flow uint64, rank uint64)

// Programs bundles the three pipeline programs of an ADCP application.
type Programs struct {
	Ingress *pipeline.Program
	Central *pipeline.Program
	Egress  *pipeline.Program
}

// Switch is an ADCP switch instance.
type Switch struct {
	cfg     Config
	ingress []*pipeline.Pipeline // Ports × DemuxFactor instances
	central []*pipeline.Pipeline
	egress  []*pipeline.Pipeline

	tm1       *tm.SharedMemoryTM // one queue per central pipeline
	tm1Merge  []*tm.MergeTM      // non-nil when rank ordering configured
	tm2       *tm.SharedMemoryTM // one queue per egress pipeline
	partition PartitionFunc
	rank      RankFunc

	progs Programs

	// demuxNext implements per-port round-robin demultiplexing (the
	// default answer to §3.3's "an application must define how to separate
	// the packet contents into m pipelines").
	demuxNext []int

	delivered      uint64
	deliveredBytes uint64
	consumed       uint64
	badRoutes      uint64
	txPerPort      []uint64

	// Coflow state directory (graceful degradation under pressure): the
	// switch tracks which coflows currently hold state, with a strict
	// recency order (coflowSeq is a deterministic logical clock). With
	// MaxActiveCoflows set, pressure evicts the least-recently-seen
	// coflow with accounting instead of erroring; evicted coflows that
	// return are readmitted (their state rebuilt) and counted.
	coflowLast map[uint32]uint64
	coflowSeq  uint64
	evicted    map[uint32]struct{}

	coflowEvictions    uint64
	coflowReadmissions uint64
	lateDrops          uint64
}

// New builds an ADCP switch. Any program may be nil (pure forwarding).
func New(cfg Config, progs Programs) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch{
		cfg:        cfg,
		progs:      progs,
		tm1:        tm.NewSharedMemoryTM(cfg.CentralPipelines, cfg.TM1BufferBytes),
		tm2:        tm.NewSharedMemoryTM(cfg.EgressPipelines, cfg.TM2BufferBytes),
		demuxNext:  make([]int, cfg.Ports),
		txPerPort:  make([]uint64, cfg.Ports),
		coflowLast: make(map[uint32]uint64),
		evicted:    make(map[uint32]struct{}),
	}
	parser, err := packet.StandardGraph().Bind()
	if err != nil {
		return nil, err
	}
	mk := func(n int, dst *[]*pipeline.Pipeline) error {
		for i := 0; i < n; i++ {
			p, err := pipeline.New(cfg.Pipe, parser)
			if err != nil {
				return err
			}
			*dst = append(*dst, p)
		}
		return nil
	}
	if err := mk(cfg.Ports*cfg.DemuxFactor, &s.ingress); err != nil {
		return nil, err
	}
	if err := mk(cfg.CentralPipelines, &s.central); err != nil {
		return nil, err
	}
	if err := mk(cfg.EgressPipelines, &s.egress); err != nil {
		return nil, err
	}
	return s, nil
}

// SetPartition installs the first TM's application-defined placement.
func (s *Switch) SetPartition(fn PartitionFunc) { s.partition = fn }

// SetRankOrder gives TM1 merge semantics (per-central-pipeline ordered
// drain). Must be called before processing begins.
func (s *Switch) SetRankOrder(fn RankFunc) {
	s.rank = fn
	s.tm1Merge = make([]*tm.MergeTM, s.cfg.CentralPipelines)
	for i := range s.tm1Merge {
		s.tm1Merge[i] = tm.NewMergeTM()
	}
}

// ingressFor returns the ingress pipeline the next packet of a port is
// demultiplexed to, advancing the round-robin pointer.
func (s *Switch) ingressFor(port int) *pipeline.Pipeline {
	m := s.cfg.DemuxFactor
	i := port*m + s.demuxNext[port]
	s.demuxNext[port] = (s.demuxNext[port] + 1) % m
	return s.ingress[i]
}

// EgressPipelineOfPort returns the egress pipeline serving a port.
func (s *Switch) EgressPipelineOfPort(port int) int {
	return port / (s.cfg.Ports / s.cfg.EgressPipelines)
}

// Ingress returns ingress pipeline i (i in [0, Ports×DemuxFactor)).
func (s *Switch) Ingress(i int) *pipeline.Pipeline { return s.ingress[i] }

// Central returns central pipeline i — the global partitioned area.
func (s *Switch) Central(i int) *pipeline.Pipeline { return s.central[i] }

// Egress returns egress pipeline i.
func (s *Switch) Egress(i int) *pipeline.Pipeline { return s.egress[i] }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// TM1 exposes the first traffic manager's buffer accounting.
func (s *Switch) TM1() *tm.SharedMemoryTM { return s.tm1 }

// TM2 exposes the second traffic manager's buffer accounting.
func (s *Switch) TM2() *tm.SharedMemoryTM { return s.tm2 }

// Process runs one packet through ingress → TM1 → central → TM2 → egress
// and returns delivered packets. Processing is synchronous; both TMs drain
// before returning.
func (s *Switch) Process(pkt *packet.Packet) ([]*packet.Packet, error) {
	if err := s.Accept(pkt); err != nil {
		return nil, err
	}
	return s.Flush()
}

// Accept runs a packet through its ingress pipeline into TM1 without
// draining the switch. Use Accept+Flush when ordering across many inputs
// matters (e.g. TM1 merge mode needs all flows queued before draining).
func (s *Switch) Accept(pkt *packet.Packet) error {
	if pkt.IngressPort < 0 || pkt.IngressPort >= s.cfg.Ports {
		return fmt.Errorf("core: ingress port %d out of range", pkt.IngressPort)
	}
	in := s.ingressFor(pkt.IngressPort)
	ctx, err := in.Process(pkt, s.progs.Ingress)
	if err != nil {
		return err
	}
	defer in.Release(ctx)
	if ctx.Verdict == pipeline.VerdictRecirculate {
		return fmt.Errorf("core: ADCP programs must not recirculate (array support removes the need)")
	}
	s.noteCoflow(ctx.Decoded.Base.CoflowID)
	return s.intoTM1(ctx)
}

// noteCoflow records activity of a coflow in the state directory. Under
// MaxActiveCoflows pressure, a new coflow evicts the least-recently-seen
// one (ties cannot occur: coflowSeq is strictly increasing, so eviction is
// deterministic). The directory models the control plane's admission view;
// the data-plane register arrays are owned by the programs themselves, so
// eviction accounting quantifies how often state would be torn down and
// rebuilt rather than wiping program memory.
func (s *Switch) noteCoflow(cf uint32) {
	if _, ok := s.evicted[cf]; ok {
		delete(s.evicted, cf)
		s.coflowReadmissions++
	}
	if _, ok := s.coflowLast[cf]; !ok && s.cfg.MaxActiveCoflows > 0 {
		for len(s.coflowLast) >= s.cfg.MaxActiveCoflows {
			victim, oldest := uint32(0), ^uint64(0)
			for id, seq := range s.coflowLast {
				if seq < oldest {
					victim, oldest = id, seq
				}
			}
			delete(s.coflowLast, victim)
			s.evicted[victim] = struct{}{}
			s.coflowEvictions++
		}
	}
	s.coflowSeq++
	s.coflowLast[cf] = s.coflowSeq
}

// Flush drains TM1 through the central pipelines and TM2 through the
// egress pipelines, returning delivered packets.
func (s *Switch) Flush() ([]*packet.Packet, error) {
	if err := s.drainTM1(); err != nil {
		return nil, err
	}
	return s.drainTM2()
}

// intoTM1 routes a finished ingress context into the first TM using the
// application-defined partition (and optional merge ranks). Ingress
// emissions take the same path as the packet itself.
func (s *Switch) intoTM1(ctx *pipeline.Context) error {
	route := func(target int, pkt *packet.Packet) error {
		if target < 0 || target >= s.cfg.CentralPipelines {
			s.badRoutes++
			return fmt.Errorf("core: partition chose central pipeline %d of %d", target, s.cfg.CentralPipelines)
		}
		if s.rank != nil {
			flow, rank := s.rank(ctx)
			if err := s.tm1Merge[target].Push(flow, pkt, rank); err != nil {
				if s.cfg.TolerateReordering {
					s.lateDrops++
					return nil
				}
				return err
			}
			return nil
		}
		s.tm1.Enqueue(target, pkt)
		return nil
	}
	if ctx.Verdict == pipeline.VerdictForward {
		target := ctx.Egress // ingress program may pick the central pipeline directly
		if target < 0 {
			if s.partition != nil {
				target = s.partition(ctx)
			} else {
				target = int(ctx.Decoded.Base.CoflowID) % s.cfg.CentralPipelines
			}
		}
		if err := route(target, ctx.Pkt); err != nil {
			return err
		}
	} else if ctx.Verdict == pipeline.VerdictConsume {
		s.consumed++
	}
	for _, em := range ctx.Emissions {
		for i := range em.Ports {
			p := em.Pkt
			if i > 0 {
				p = em.Pkt.Clone()
			}
			// Ingress emissions re-enter at TM1 using the partitioner on
			// the emitting context.
			target := 0
			if s.partition != nil {
				target = s.partition(ctx)
			}
			if err := route(target, p); err != nil {
				return err
			}
		}
	}
	ctx.ClearEmissions()
	return nil
}

// drainTM1 runs every TM1-queued packet through its central pipeline and
// routes survivors (and emissions) into TM2.
func (s *Switch) drainTM1() error {
	for cp := 0; cp < s.cfg.CentralPipelines; cp++ {
		next := func() *packet.Packet {
			if s.tm1Merge != nil {
				p, _, _, ok := s.tm1Merge[cp].Pop()
				if !ok {
					return nil
				}
				return p
			}
			return s.tm1.Dequeue(cp)
		}
		for {
			p := next()
			if p == nil {
				break
			}
			ctx, err := s.central[cp].Process(p, s.progs.Central)
			if err != nil {
				return err
			}
			if ctx.Verdict == pipeline.VerdictRecirculate {
				s.central[cp].Release(ctx)
				return fmt.Errorf("core: central program requested recirculation")
			}
			err = s.routeToTM2(ctx)
			s.central[cp].Release(ctx)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// routeToTM2 places a finished central context and its emissions into the
// second TM. Thanks to TM2, ANY output port is reachable regardless of
// which central pipeline held the state (§3.1, Figure 5).
func (s *Switch) routeToTM2(ctx *pipeline.Context) error {
	switch ctx.Verdict {
	case pipeline.VerdictForward:
		if len(ctx.Multicast) > 0 {
			for i, port := range ctx.Multicast {
				p := ctx.Pkt
				if i > 0 {
					p = ctx.Pkt.Clone()
				}
				if err := s.enqueueTM2(port, p); err != nil {
					return err
				}
			}
		} else {
			port := ctx.Egress
			if port < 0 {
				port = int(ctx.Decoded.Base.DstPort)
			}
			if err := s.enqueueTM2(port, ctx.Pkt); err != nil {
				return err
			}
		}
	case pipeline.VerdictConsume:
		s.consumed++
	}
	for _, em := range ctx.Emissions {
		for i, port := range em.Ports {
			p := em.Pkt
			if i > 0 {
				p = em.Pkt.Clone()
			}
			if err := s.enqueueTM2(port, p); err != nil {
				return err
			}
		}
	}
	ctx.ClearEmissions()
	return nil
}

func (s *Switch) enqueueTM2(port int, p *packet.Packet) error {
	if port < 0 || port >= s.cfg.Ports {
		s.badRoutes++
		return fmt.Errorf("core: egress port %d out of range", port)
	}
	p.EgressPort = port
	s.tm2.Enqueue(s.EgressPipelineOfPort(port), p)
	return nil
}

// drainTM2 runs every TM2-queued packet through its egress pipeline and
// collects deliveries; egress pipelines are multiplexed back onto their
// ports (§3.3: "at the end of the egress pipeline, the pipelines are
// multiplexed back into high-speed flows").
func (s *Switch) drainTM2() ([]*packet.Packet, error) {
	var out []*packet.Packet
	for ep := 0; ep < s.cfg.EgressPipelines; ep++ {
		for {
			p := s.tm2.Dequeue(ep)
			if p == nil {
				break
			}
			ctx, err := s.egress[ep].Process(p, s.progs.Egress)
			if err != nil {
				return nil, err
			}
			if ctx.Verdict == pipeline.VerdictForward {
				port := ctx.Pkt.EgressPort
				if ctx.Egress >= 0 {
					port = ctx.Egress
				}
				// As in RMT, an egress pipeline is wired to its own ports.
				if s.EgressPipelineOfPort(port) == ep {
					ctx.Pkt.EgressPort = port
					out = append(out, ctx.Pkt)
					s.delivered++
					s.deliveredBytes += uint64(ctx.Pkt.WireLen())
					s.txPerPort[port]++
				} else {
					s.badRoutes++
				}
			}
			s.egress[ep].Release(ctx)
		}
	}
	return out, nil
}

// Delivered returns packets handed to output ports.
func (s *Switch) Delivered() uint64 { return s.delivered }

// DeliveredBytes returns wire bytes handed to output ports.
func (s *Switch) DeliveredBytes() uint64 { return s.deliveredBytes }

// Consumed returns packets absorbed into switch state (e.g. partial
// aggregates).
func (s *Switch) Consumed() uint64 { return s.consumed }

// BadRoutes counts routing targets outside the switch geometry.
func (s *Switch) BadRoutes() uint64 { return s.badRoutes }

// ActiveCoflows returns the number of coflows currently holding state.
func (s *Switch) ActiveCoflows() int { return len(s.coflowLast) }

// CoflowEvictions counts coflows evicted under MaxActiveCoflows pressure.
func (s *Switch) CoflowEvictions() uint64 { return s.coflowEvictions }

// CoflowReadmissions counts evicted coflows readmitted on later packets.
func (s *Switch) CoflowReadmissions() uint64 { return s.coflowReadmissions }

// LateDrops counts merge-mode rank regressions dropped with accounting
// (TolerateReordering) instead of erroring.
func (s *Switch) LateDrops() uint64 { return s.lateDrops }

// TxOnPort returns packets delivered on a specific port.
func (s *Switch) TxOnPort(port int) uint64 { return s.txPerPort[port] }

// IngressTraversals sums traversals across all ingress pipelines.
func (s *Switch) IngressTraversals() uint64 {
	var n uint64
	for _, p := range s.ingress {
		n += p.Packets()
	}
	return n
}

// CentralTraversals sums traversals across the global partitioned area.
func (s *Switch) CentralTraversals() uint64 {
	var n uint64
	for _, p := range s.central {
		n += p.Packets()
	}
	return n
}

// NumIngressPipelines returns Ports × DemuxFactor.
func (s *Switch) NumIngressPipelines() int { return len(s.ingress) }
