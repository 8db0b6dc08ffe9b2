package perf

import (
	"time"

	"repro/internal/sim"
)

// MeterWindow is how many dispatched events a meter accumulates before it
// samples the wall clock and flushes into the plane aggregate. The hot
// path therefore costs one branch, two compares, and two increments per
// event; time.Now is paid once per window. A power of two keeps the
// arithmetic trivial for the compiler.
const MeterWindow = 1024

// Meter is a low-overhead throughput probe on one engine's dispatch loop.
// It is engine-local (the engine is single-goroutine by contract) and only
// touches shared plane state at window boundaries and when its owner
// calls Flush, via atomics. A window fold keeps the plane's totals live
// during long runs; Flush folds the unfinished tail when a run returns, so
// the flushed totals are exact — the engine's Fired count, independent of
// worker scheduling and deterministic for a deterministic simulation — and
// events/s divides those events by exactly the wall time they took.
type Meter struct {
	plane *Plane

	n        uint64 // events since last flush
	last     time.Time
	haveLast bool

	// Same-timestamp dispatch-batch accounting: a batch is a maximal run
	// of consecutive events sharing one simulated timestamp — the unit a
	// batched dispatch loop would hand out at once, so the batch-size
	// shape tells the ROADMAP's batching refactor what there is to win.
	lastAt   sim.Time
	batch    uint64
	batches  uint64 // completed batches since last flush
	batchMax uint64
}

// AttachMeter installs a throughput meter on eng's dispatch loop,
// reporting into p, and returns it for Flush. No-op returning nil on a nil
// plane or engine.
func (p *Plane) AttachMeter(eng *sim.Engine) *Meter {
	if p == nil || eng == nil {
		return nil
	}
	m := &Meter{plane: p}
	eng.AddDispatchHook(m.hook)
	return m
}

// Attach installs a meter for the active plane; no-op returning nil when
// the plane is off. This is the one-liner construction sites (netsim.New)
// call.
func Attach(eng *sim.Engine) *Meter { return Active().AttachMeter(eng) }

func (m *Meter) hook(at sim.Time, pending int, fired uint64) {
	if !m.haveLast {
		m.last = time.Now()
		m.haveLast = true
	}
	if m.batch == 0 {
		m.batch, m.lastAt = 1, at
	} else if at == m.lastAt {
		m.batch++
	} else {
		m.closeBatch()
		m.batch, m.lastAt = 1, at
	}
	m.n++
	if m.n >= MeterWindow {
		m.fold()
	}
}

// Flush folds the unfinished tail — the events since the last window, the
// wall time they took, and the open same-timestamp batch — into the plane.
// Call it when the engine's Run returns (netsim.Network does). The next
// dispatch restarts the clock, so time the engine spends idle between runs
// is never metered. No-op on a nil meter or when nothing was dispatched
// since the last Flush.
func (m *Meter) Flush() {
	if m == nil || !m.haveLast {
		return
	}
	if m.batch > 0 {
		m.closeBatch()
		m.batch = 0
	}
	m.fold()
	m.haveLast = false
}

func (m *Meter) closeBatch() {
	m.batches++
	if m.batch > m.batchMax {
		m.batchMax = m.batch
	}
}

// fold samples the wall clock once and folds the events counted since the
// last fold into the plane aggregate.
func (m *Meter) fold() {
	now := time.Now()
	m.plane.wallNs.Add(now.Sub(m.last).Nanoseconds())
	m.plane.events.Add(m.n)
	m.last = now
	if m.batches > 0 {
		m.plane.batches.Add(m.batches)
	}
	m.plane.noteBatchMax(m.batchMax)
	m.n, m.batches, m.batchMax = 0, 0, 0
}
