package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const schemaHead = `{"schema":"adcp-metrics/1","metrics":[`

func writeDoc(t *testing.T, dir, name, metrics string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(schemaHead+metrics+"]}"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestBenchcheckOK(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json",
		`{"name":"exp.a","kind":"value","value":100},{"name":"exp.b","kind":"value","value":2.5,"labels":{"k":"v"}}`)
	cur := writeDoc(t, dir, "cur.json",
		`{"name":"exp.a","kind":"value","value":110},{"name":"exp.b","kind":"value","value":2.5,"labels":{"k":"v"}},{"name":"exp.new","kind":"value","value":9}`)
	code, out, errw := runCheck(t, "-baseline", base, "-current", cur)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errw)
	}
	if !strings.Contains(out, "OK") {
		t.Errorf("stdout missing OK: %q", out)
	}
}

func TestBenchcheckDrift(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", `{"name":"exp.a","kind":"value","value":100}`)
	cur := writeDoc(t, dir, "cur.json", `{"name":"exp.a","kind":"value","value":130}`)
	code, _, errw := runCheck(t, "-baseline", base, "-current", cur)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errw, "exp.a") || !strings.Contains(errw, "drift 30.0%") {
		t.Errorf("stderr = %q", errw)
	}
	// The same drift passes with a looser tolerance.
	if code, _, _ := runCheck(t, "-baseline", base, "-current", cur, "-tol", "0.5"); code != 0 {
		t.Errorf("exit = %d with tol 0.5, want 0", code)
	}
}

func TestBenchcheckMissingSeries(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json",
		`{"name":"exp.a","kind":"value","value":1},{"name":"exp.gone","kind":"value","value":1,"labels":{"p":"0"}}`)
	cur := writeDoc(t, dir, "cur.json", `{"name":"exp.a","kind":"value","value":1}`)
	code, _, errw := runCheck(t, "-baseline", base, "-current", cur)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errw, "exp.gone{p=0}: missing") {
		t.Errorf("stderr = %q", errw)
	}
}

func TestBenchcheckZeroBaseline(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", `{"name":"exp.z","kind":"value","value":0}`)
	okCur := writeDoc(t, dir, "ok.json", `{"name":"exp.z","kind":"value","value":0.1}`)
	badCur := writeDoc(t, dir, "bad.json", `{"name":"exp.z","kind":"value","value":5}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", okCur); code != 0 {
		t.Errorf("zero-baseline small value: exit %d (%q)", code, errw)
	}
	if code, _, _ := runCheck(t, "-baseline", base, "-current", badCur); code != 1 {
		t.Errorf("zero-baseline large value: exit %d, want 1", code)
	}
}

// perf.* series gate directionally: throughput may only fall so far,
// per-event cost may only rise so far, and improvement in the good
// direction is never a regression no matter how large.
func TestBenchcheckPerfGates(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json",
		`{"name":"perf.bench.events_per_s","kind":"value","value":1000},{"name":"perf.bench.allocs_per_event","kind":"value","value":10}`)

	// 10x faster and allocation-free: both moved in the good direction.
	better := writeDoc(t, dir, "better.json",
		`{"name":"perf.bench.events_per_s","kind":"value","value":10000},{"name":"perf.bench.allocs_per_event","kind":"value","value":0}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", better); code != 0 {
		t.Errorf("improvement flagged as regression: exit %d, stderr %q", code, errw)
	}

	// Throughput fell below the 50% floor.
	slow := writeDoc(t, dir, "slow.json",
		`{"name":"perf.bench.events_per_s","kind":"value","value":400},{"name":"perf.bench.allocs_per_event","kind":"value","value":10}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", slow); code != 1 || !strings.Contains(errw, "fell") {
		t.Errorf("throughput drop: exit %d, stderr %q", code, errw)
	}

	// Per-event allocations rose above the 50% ceiling.
	leaky := writeDoc(t, dir, "leaky.json",
		`{"name":"perf.bench.events_per_s","kind":"value","value":1000},{"name":"perf.bench.allocs_per_event","kind":"value","value":16}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", leaky); code != 1 || !strings.Contains(errw, "rose") {
		t.Errorf("alloc rise: exit %d, stderr %q", code, errw)
	}
	// ... but passes with a looser perf tolerance.
	if code, _, _ := runCheck(t, "-baseline", base, "-current", leaky, "-perf-tol", "0.7"); code != 0 {
		t.Errorf("alloc rise with -perf-tol 0.7: exit != 0")
	}
}

// Build-cost counts gate as ceilings per labeled series: a switch that
// builds cheaper passes, one that allocates past the band fails.
func TestBenchcheckBuildCostCeilings(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json",
		`{"name":"perf.build.adcp_bytes_per_switch","kind":"value","value":1000,"labels":{"config":"default"}}`)
	cheaper := writeDoc(t, dir, "cheaper.json",
		`{"name":"perf.build.adcp_bytes_per_switch","kind":"value","value":10,"labels":{"config":"default"}}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", cheaper); code != 0 {
		t.Errorf("cheaper build flagged: exit %d, stderr %q", code, errw)
	}
	heavier := writeDoc(t, dir, "heavier.json",
		`{"name":"perf.build.adcp_bytes_per_switch","kind":"value","value":1600,"labels":{"config":"default"}}`)
	code, _, errw := runCheck(t, "-baseline", base, "-current", heavier)
	if code != 1 || !strings.Contains(errw, "perf.build.adcp_bytes_per_switch{config=default}: rose") {
		t.Errorf("heavier build: exit %d, stderr %q", code, errw)
	}
}

// Informational perf.* series (no _per_s / per_event shape) never gate,
// even when absent from the current run.
func TestBenchcheckPerfInformational(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json",
		`{"name":"perf.bench.overhead_ratio","kind":"value","value":1.0},{"name":"perf.pool.merge_stall_s","kind":"value","value":0.5}`)
	cur := writeDoc(t, dir, "cur.json",
		`{"name":"perf.bench.overhead_ratio","kind":"value","value":99}`)
	if code, _, errw := runCheck(t, "-baseline", base, "-current", cur); code != 0 {
		t.Errorf("informational perf series gated: exit %d, stderr %q", code, errw)
	}
}

func TestGateFor(t *testing.T) {
	cases := []struct {
		name string
		want gate
	}{
		{"exp.table1.cct_ratio", gateExact},
		{"switch.delivered_pkts", gateExact},
		{"perf.bench.events_per_s", gateFloor},
		{"perf.run.events_per_s", gateFloor},
		{"perf.bench.allocs_per_event", gateCeiling},
		{"perf.bench.bytes_per_event", gateCeiling},
		{"perf.bench.overhead_ratio", gateNone},
		{"perf.mem.heap_peak_bytes", gateNone},
		{"sim.events_per_s", gateFloor},
		{"sim.allocs_per_event", gateCeiling},
		{"perf.build.adcp_bytes_per_switch", gateCeiling},
		{"perf.build.rmt_allocs_per_switch", gateCeiling},
		{"perf.kv.adcp_allocs_per_pkt", gateCeiling},
		{"perf.kv.rmt_allocs_per_pkt", gateCeiling},
	}
	for _, c := range cases {
		if got := gateFor(c.name); got != c.want {
			t.Errorf("gateFor(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBenchcheckBadInputs(t *testing.T) {
	dir := t.TempDir()
	if code, _, _ := runCheck(t); code != 2 {
		t.Errorf("missing -current: exit %d, want 2", code)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"wrong/9","metrics":[]}`), 0o644)
	good := writeDoc(t, dir, "good.json", `{"name":"a","kind":"value","value":1}`)
	if code, _, errw := runCheck(t, "-baseline", bad, "-current", good); code != 2 || !strings.Contains(errw, "schema") {
		t.Errorf("bad schema: exit %d, stderr %q", code, errw)
	}
}
