package main

import (
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/tm"
)

// memIf reads the heap counters on traced rounds only: untraced rounds do
// not pay for a stop-the-world read around every constructor.
func memIf(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	ms := memNow()
	return ms.TotalAlloc
}

// allocSinceMB returns the MiB allocated since memIf returned before.
func allocSinceMB(tr *tracer, before uint64) float64 {
	if tr == nil {
		return 0
	}
	ms := memNow()
	return float64(ms.TotalAlloc-before) / (1 << 20)
}

// switchLayers reads the per-layer counters of one ADCP and one RMT switch
// after a round: pipeline stage cycles and parse errors, traffic-manager
// occupancy, and the traversal counts that measure wasted passes.
// adcpPkts and rmtPkts are the packets each switch was offered.
func switchLayers(c *core.Switch, r *rmt.Switch, adcpPkts, rmtPkts int) map[string]float64 {
	var pipes []*pipeline.Pipeline
	for i := 0; i < c.NumIngressPipelines(); i++ {
		pipes = append(pipes, c.Ingress(i))
	}
	for i := 0; i < c.Config().CentralPipelines; i++ {
		pipes = append(pipes, c.Central(i))
	}
	for i := 0; i < c.Config().EgressPipelines; i++ {
		pipes = append(pipes, c.Egress(i))
	}
	for i := 0; i < r.Config().Pipelines; i++ {
		pipes = append(pipes, r.Ingress(i), r.Egress(i))
	}
	var cycles, parseErrs uint64
	for _, p := range pipes {
		cycles += p.StageCycles()
		parseErrs += p.ParseErrors()
	}
	var enq, drop uint64
	peak := 0
	for _, t := range []*tm.SharedMemoryTM{c.TM1(), c.TM2(), r.TM()} {
		enq += t.Enqueued()
		drop += t.Dropped()
		peak = max(peak, t.PeakOccupancy())
	}
	l := map[string]float64{
		"pipeline.stage_cycles_per_pkt": float64(cycles) / float64(adcpPkts+rmtPkts),
		"pipeline.parse_errors":         float64(parseErrs),
		"tm.enqueued":                   float64(enq),
		"tm.dropped":                    float64(drop),
		"tm.peak_kb":                    float64(peak) / 1024,
		"rmt.traversals_per_pkt":        float64(r.IngressTraversals()) / float64(rmtPkts),
		"rmt.recirc":                    float64(r.RecirculationTraversals()),
		"core.central_traversals":       float64(c.CentralTraversals()),
	}
	return l
}
