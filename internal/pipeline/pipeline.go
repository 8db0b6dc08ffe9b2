// Package pipeline models a switch processing pipeline: a programmable
// parser, a fixed sequence of shared-nothing match-action stages, and a
// deparser (paper §2, Figure 1 bottom insert).
//
// A pipeline is clocked: at line rate it retires one packet per cycle, so a
// pipeline's modeled throughput is exactly its clock frequency in packets
// per second. Stage programs are sequences of per-stage functions produced
// by the program compiler (or written directly by tests); each function
// sees the stage's table memory and register files plus the per-packet
// context (decoded headers, verdict, scratch).
//
// The same Pipeline type serves as RMT ingress/egress pipeline and as ADCP
// ingress/central/egress pipeline — the architectures differ in how many
// pipelines they instantiate, how ports map onto them, what memory mode the
// stages use, and what sits between them (one TM vs two), all of which is
// composed by the rmt and core packages.
package pipeline

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
)

// Config describes a pipeline's geometry and clock.
type Config struct {
	// Stages is the number of match-action stages (RMT switches ship
	// 12–20; we default to 12 ingress + 12 egress like the original RMT
	// paper's 32-stage total budget).
	Stages int
	// MAUsPerStage is the number of match-action units per stage (16 in
	// the paper's discussion).
	MAUsPerStage int
	// TableEntriesPerStage is the SRAM entry budget of each stage.
	TableEntriesPerStage int
	// RegisterCellsPerStage is the stateful register cells per stage.
	RegisterCellsPerStage int
	// TCAMEntriesPerStage is the ternary (wildcard-match) rule budget per
	// stage — real stages pair exact-match SRAM with a smaller TCAM for
	// classifiers/ACLs. Zero disables the TCAM.
	TCAMEntriesPerStage int
	// MemoryMode selects scalar (RMT), array-interconnect (ADCP §3.2), or
	// multi-clock (§4) stage memory.
	MemoryMode mat.MemoryMode
	// MemoryClockMult is the memory:pipeline clock ratio for multi-clock.
	MemoryClockMult int
	// ClockHz is the pipeline clock. At line rate the pipeline retires one
	// packet per cycle, so this is also its packet rate ceiling.
	ClockHz float64
	// PHVBudget is the packet-header-vector container budget programs
	// on this pipeline must fit. It is a constraint, not run-time state:
	// apps check their needs against it (the KV cache needs an array
	// container, the parameter server an array as wide as its chunk).
	PHVBudget phv.Budget
}

// DefaultRMTConfig mirrors a Tofino-class pipeline: 12 stages, 16 MAUs per
// stage, 64K entries and 4K register cells per stage, scalar memory,
// 1.25 GHz.
func DefaultRMTConfig() Config {
	return Config{
		Stages:                12,
		MAUsPerStage:          mat.StageMAUs,
		TableEntriesPerStage:  64 * 1024,
		RegisterCellsPerStage: 4 * 1024,
		TCAMEntriesPerStage:   1024,
		MemoryMode:            mat.ModeScalar,
		ClockHz:               1.25e9,
		PHVBudget:             phv.DefaultBudget,
	}
}

// DefaultADCPConfig is the ADCP counterpart: same stage count and SRAM, but
// array-interconnected stage memory and the ADCP PHV with array containers.
// The clock is lower (§3.3/§4: demultiplexing lets pipelines run slower).
func DefaultADCPConfig() Config {
	c := DefaultRMTConfig()
	c.MemoryMode = mat.ModeArray
	c.ClockHz = 1.0e9
	c.PHVBudget = phv.ADCPBudget
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("pipeline: %d stages", c.Stages)
	case c.MAUsPerStage <= 0:
		return fmt.Errorf("pipeline: %d MAUs per stage", c.MAUsPerStage)
	case c.TableEntriesPerStage <= 0:
		return fmt.Errorf("pipeline: %d table entries per stage", c.TableEntriesPerStage)
	case c.RegisterCellsPerStage < 0:
		return fmt.Errorf("pipeline: negative register cells")
	case c.ClockHz <= 0:
		return fmt.Errorf("pipeline: clock %v Hz", c.ClockHz)
	}
	return nil
}

// Stage is one match-action stage: exact-match table memory, a ternary
// classifier (TCAM), and a register file.
type Stage struct {
	Index int
	Mem   *mat.StageMemory
	TCAM  *mat.TernaryTable // nil when the config disables it
	Regs  *mat.RegisterFile

	// rmwDone guards the one-RMW-per-packet-per-stage constraint; the
	// pipeline resets it between packets.
	rmwDone bool
}

// RegisterRMW performs a read-modify-write on the stage's register file,
// enforcing the hardware constraint of at most one RMW per packet per
// stage. A second call in the same traversal returns an error — the
// program needed another stage (or another pass) for that.
func (s *Stage) RegisterRMW(op mat.RegisterOp, idx int, arg uint64) (uint64, error) {
	if s.rmwDone {
		return 0, fmt.Errorf("pipeline: stage %d: second register RMW in one traversal", s.Index)
	}
	if idx < 0 || idx >= s.Regs.Size() {
		return 0, fmt.Errorf("pipeline: stage %d: register index %d out of [0,%d)", s.Index, idx, s.Regs.Size())
	}
	s.rmwDone = true
	return s.Regs.Execute(op, idx, arg), nil
}

// Verdict is the fate of a packet after a traversal.
type Verdict int

// Verdicts.
const (
	VerdictForward Verdict = iota
	VerdictDrop
	VerdictRecirculate // RMT escape hatch: another pass needed
	VerdictConsume     // absorbed into switch state (e.g. partial aggregate)
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictRecirculate:
		return "recirculate"
	case VerdictConsume:
		return "consume"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Context carries one packet through a traversal.
type Context struct {
	Pkt *packet.Packet
	// Decoded is the packet's headers, decoded once per traversal after
	// the parser accepts the packet. It is the only per-packet header
	// representation stages read and write.
	Decoded packet.Decoded

	Verdict   Verdict
	Egress    int   // output port (or central pipeline index at TM1)
	Multicast []int // when non-nil, overrides Egress with multiple ports

	// ElementOffset is the index of the array element this traversal
	// operates on. RMT scalar programs advance it by their per-pass
	// parallelism and recirculate until all elements are covered.
	ElementOffset int

	// Modified marks that headers changed and the deparser must reencode.
	Modified bool

	// Cycles accumulates modeled pipeline cycles spent on this traversal
	// beyond the baseline (extra memory beats etc.).
	Cycles int

	// Scratch is scratch space for programs, modeling PHV temporary
	// fields carried between stages. Like ElementOffset it survives
	// recirculated passes (switch metadata rides along with the packet).
	Scratch [4]uint64

	// Emissions are switch-generated packets produced by this traversal
	// (e.g. an aggregation result fanned out to workers). The surrounding
	// switch routes them onward.
	Emissions []Emission

	// released guards the context free list against double-Release; a
	// released context is owned by the pipeline until Process hands it
	// out again.
	released bool
}

// Emission is a packet generated inside the switch, destined to one or more
// output ports.
type Emission struct {
	Pkt   *packet.Packet
	Ports []int
}

// ClearEmissions marks the context's emissions consumed: elements are
// zeroed (so recycled contexts don't pin packets) but the backing array
// is kept for reuse. Switches call this after routing emissions onward.
func (c *Context) ClearEmissions() {
	for i := range c.Emissions {
		c.Emissions[i] = Emission{}
	}
	c.Emissions = c.Emissions[:0]
}

// Emit queues a switch-generated packet for the given output ports. The
// emission inherits the triggering packet's recirculation count: a result
// produced on a packet's Nth pass leaves the switch that much later.
func (c *Context) Emit(pkt *packet.Packet, ports ...int) {
	pkt.Data[5] |= packet.FlagFromSwch
	pkt.Recirculations = c.Pkt.Recirculations
	c.Emissions = append(c.Emissions, Emission{Pkt: pkt, Ports: ports})
}

// StageFunc is the compiled program of one stage.
type StageFunc func(s *Stage, ctx *Context) error

// Program is a full pipeline program: one function per stage (nil entries
// are no-ops).
type Program struct {
	Name  string
	Funcs []StageFunc
}

// Pipeline is a parser + stages + deparser with cycle accounting.
type Pipeline struct {
	cfg    Config
	stages []*Stage
	parser *packet.BoundParser

	// ctxFree is the context free list: it makes the steady-state
	// traversal allocation-free.
	ctxFree []*Context

	packets     uint64
	drops       uint64
	recircs     uint64
	parseErrors uint64
	stageCycles uint64

	observer Observer
}

// New builds a pipeline around a bound parser. The parser is read-only,
// so a switch binds its parse graph once and shares it across all of its
// pipelines.
func New(cfg Config, parser *packet.BoundParser) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, parser: parser}
	for i := 0; i < cfg.Stages; i++ {
		st := &Stage{
			Index: i,
			Mem:   mat.NewStageMemory(cfg.MemoryMode, cfg.MAUsPerStage, cfg.TableEntriesPerStage, cfg.MemoryClockMult),
			Regs:  mat.NewRegisterFile(cfg.RegisterCellsPerStage),
		}
		if cfg.TCAMEntriesPerStage > 0 {
			st.TCAM = mat.NewTernaryTable(cfg.TCAMEntriesPerStage)
		}
		p.stages = append(p.stages, st)
	}
	return p, nil
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Stage returns stage i for table/register installation.
func (p *Pipeline) Stage(i int) *Stage { return p.stages[i] }

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.stages) }

// Process runs one packet through parse → stages → deparse and returns the
// finished context. The caller must return the context with Release;
// released contexts are recycled, so neither the context nor its Decoded
// view may be read after Release.
func (p *Pipeline) Process(pkt *packet.Packet, prog *Program) (*Context, error) {
	var ctx *Context
	if n := len(p.ctxFree); n > 0 {
		ctx = p.ctxFree[n-1]
		p.ctxFree[n-1] = nil
		p.ctxFree = p.ctxFree[:n-1]
		ctx.Pkt = pkt
		ctx.Verdict = VerdictForward
		ctx.Egress = -1
		ctx.Multicast = nil
		ctx.ElementOffset = 0
		ctx.Modified = false
		ctx.Cycles = 0
		ctx.Scratch = [4]uint64{}
		ctx.released = false
	} else {
		ctx = &Context{Pkt: pkt, Egress: -1}
	}
	if err := p.runInto(ctx, prog); err != nil {
		p.Release(ctx)
		return nil, err
	}
	return ctx, nil
}

// Resume re-runs a recirculated context through the pipeline: the context
// keeps its ElementOffset and Scratch across passes, as switch
// recirculation preserves attached metadata.
func (p *Pipeline) Resume(ctx *Context, prog *Program) error {
	ctx.Verdict = VerdictForward
	ctx.Cycles = 0
	return p.runInto(ctx, prog)
}

func (p *Pipeline) runInto(ctx *Context, prog *Program) error {
	// Parse: the walker charges one cycle per state visited and rejects
	// packets the graph does not accept; stages read the decoded headers.
	states, _, err := p.parser.Run(ctx.Pkt.Data, 0)
	if err != nil {
		p.parseErrors++
		return fmt.Errorf("pipeline: parse: %w", err)
	}
	ctx.Cycles += states
	if err := ctx.Decoded.DecodePacket(ctx.Pkt); err != nil {
		p.parseErrors++
		return fmt.Errorf("pipeline: decode: %w", err)
	}
	if p.observer != nil {
		p.observer(Event{Kind: EvParsed, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
	}

	// Stages: one cycle each, up to and including the stage that drops
	// or consumes the packet.
	var funcs []StageFunc
	if prog != nil {
		funcs = prog.Funcs
	}
	for i, st := range p.stages {
		if i < len(funcs) && funcs[i] != nil {
			st.rmwDone = false
			if err := funcs[i](st, ctx); err != nil {
				return fmt.Errorf("pipeline: stage %d: %w", i, err)
			}
		}
		ctx.Cycles++
		if p.observer != nil {
			p.observer(Event{Kind: EvStage, Stage: i, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
		}
		if ctx.Verdict == VerdictDrop || ctx.Verdict == VerdictConsume {
			break
		}
	}
	p.stageCycles += uint64(ctx.Cycles)

	// Deparse.
	if ctx.Modified && ctx.Verdict != VerdictDrop && ctx.Verdict != VerdictConsume {
		np := ctx.Decoded.Reencode()
		np.IngressPort = ctx.Pkt.IngressPort
		np.EgressPort = ctx.Pkt.EgressPort
		np.Recirculations = ctx.Pkt.Recirculations
		ctx.Pkt = np
		ctx.Modified = false
		ctx.Cycles++
		if p.observer != nil {
			p.observer(Event{Kind: EvDeparsed, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
		}
	}
	if p.observer != nil {
		p.observer(Event{Kind: EvDone, Stage: -1, Cycles: ctx.Cycles, Verdict: ctx.Verdict})
	}

	p.packets++
	switch ctx.Verdict {
	case VerdictDrop:
		p.drops++
	case VerdictRecirculate:
		p.recircs++
	}
	return nil
}

// Release returns the context to the pipeline's free list. The context
// must not be read afterwards: Process recycles it. Double release is a
// safe no-op.
func (p *Pipeline) Release(ctx *Context) {
	if ctx == nil || ctx.released {
		return
	}
	ctx.released = true
	ctx.Pkt = nil
	ctx.Multicast = nil
	ctx.ClearEmissions()
	p.ctxFree = append(p.ctxFree, ctx)
}

// Counters is the pipeline's checkpointable traversal accounting.
type Counters struct {
	Packets, Drops, Recircs, ParseErrors, StageCycles uint64
}

// Counters exports the pipeline's traversal accounting.
func (p *Pipeline) Counters() Counters {
	return Counters{
		Packets:     p.packets,
		Drops:       p.drops,
		Recircs:     p.recircs,
		ParseErrors: p.parseErrors,
		StageCycles: p.stageCycles,
	}
}

// RestoreCounters overwrites the pipeline's traversal accounting from a
// checkpoint.
func (p *Pipeline) RestoreCounters(c Counters) {
	p.packets = c.Packets
	p.drops = c.Drops
	p.recircs = c.Recircs
	p.parseErrors = c.ParseErrors
	p.stageCycles = c.StageCycles
}

// Packets returns total traversals processed.
func (p *Pipeline) Packets() uint64 { return p.packets }

// Drops returns traversals that ended in a drop verdict.
func (p *Pipeline) Drops() uint64 { return p.drops }

// Recirculations returns traversals that requested another pass.
func (p *Pipeline) Recirculations() uint64 { return p.recircs }

// ParseErrors returns packets rejected by the parser.
func (p *Pipeline) ParseErrors() uint64 { return p.parseErrors }

// StageCycles returns the cumulative modeled cycles across traversals.
func (p *Pipeline) StageCycles() uint64 { return p.stageCycles }

// ModeledSeconds converts a traversal count into modeled device time: at
// line rate the pipeline retires one packet per cycle.
func (p *Pipeline) ModeledSeconds(traversals uint64) float64 {
	return float64(traversals) / p.cfg.ClockHz
}

// PacketRateCeiling returns the pipeline's line-rate packet ceiling in
// packets per second (= clock, one packet retired per cycle).
func (p *Pipeline) PacketRateCeiling() float64 { return p.cfg.ClockHz }
