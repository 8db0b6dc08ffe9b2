package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanID names a span. Each span wraps one public call into the layer it
// is named after; the benchmark records spans only in its own code.
type spanID int32

const (
	spRound      spanID = iota // one unit of work: set-up plus simulation
	spCoreBuild                // ADCP switch constructor
	spRMTBuild                 // RMT switch constructor
	spKVInstall                // loading cache entries into a built switch
	spGen                      // input generation
	spNetNew                   // netsim.New
	spNetRun                   // SendAt of every injection, then Network.Run
	spCoreProc                 // one core.Switch.Process call
	spRMTProc                  // one rmt.Switch.Process call
	spExpHarness               // telemetry hub set-up before the experiments
	spExpFirst                 // exp.<id> spans follow, in experimentList order
)

var spanNames = []string{
	"round", "core.build", "rmt.build", "kv.install", "workload.gen",
	"netsim.new", "netsim.run", "core.process", "rmt.process", "exp.harness",
}

// spExp is the span of experimentList[i].
func spExp(i int) spanID { return spExpFirst + spanID(i) }

func spanName(id spanID) string {
	if id >= spExpFirst {
		return "exp." + experimentList[id-spExpFirst].name
	}
	return spanNames[id]
}

// maxStoredSpans bounds the spans kept for the Chrome trace (about 12 MB
// of JSON). Spans beyond it still count toward self times; the trace file
// records how many were left out.
const maxStoredSpans = 100_000

type spanRec struct {
	name       spanID
	parent     int32 // index into tracer.spans, -1 for none
	start, end int64 // ns since tracer start
}

type frame struct {
	name   spanID
	stored int32 // index into tracer.spans, -1 when not stored
	start  int64
	child  int64 // ns covered by finished child spans
}

// layerTotals accumulates one span name's time.
type layerTotals struct {
	self, total time.Duration
	count       int
}

// tracer records nested spans from a single goroutine. A nil *tracer is a
// valid no-op, so untraced runs pay one nil check per call site.
type tracer struct {
	t0      time.Time
	stack   []frame
	spans   []spanRec
	dropped int
	totals  []layerTotals // by spanID
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make([]layerTotals, int(spExpFirst)+len(experimentList))}
}

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	f := frame{name: id, stored: -1, start: int64(time.Since(t.t0))}
	if len(t.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].stored
		}
		f.stored = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{name: id, parent: parent, start: f.start})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	lt := &t.totals[f.name]
	lt.self += time.Duration(dur - f.child)
	lt.total += time.Duration(dur)
	lt.count++
	if f.stored >= 0 {
		t.spans[f.stored].end = now
	}
	if n > 0 {
		t.stack[n-1].child += dur
	}
}

// snapshot returns a copy of the per-span totals so far.
func (t *tracer) snapshot() []layerTotals {
	return append([]layerTotals(nil), t.totals...)
}

// since returns the totals accumulated after snapshot prev was taken:
// one round's self times.
func (t *tracer) since(prev []layerTotals) []layerTotals {
	out := t.snapshot()
	for i, p := range prev {
		out[i] = layerTotals{self: out[i].self - p.self, total: out[i].total - p.total, count: out[i].count - p.count}
	}
	return out
}

// writeChrome writes the stored spans as a Chrome trace-event file
// (viewable in ui.perfetto.dev or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	sep := ""
	for i, s := range t.spans {
		if s.end < s.start {
			continue // still open: only possible after an aborted round
		}
		name, _ := json.Marshal(spanName(s.name))
		fmt.Fprintf(w, "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n",
			sep, name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
		sep = ","
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
