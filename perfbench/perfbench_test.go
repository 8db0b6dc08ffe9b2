package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

var tinyKV = kvParams{
	Clients: 8, OpsPerClient: 40, KeysPerPacket: 8,
	KeySpace: 512, CacheEntries: 64, Skew: 0.99, PutEvery: 5,
}

var tinyPS = psParams{Ports: 16, Pipelines: 4, Workers: 6, ModelSize: 32, Width: 4, ServiceRatePPS: 5e5}

// runRound runs one round of b, traced or not, and checks it.
func runRound(t *testing.T, b bench, traced bool) roundStats {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rs, err := b.round(tr)
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	if msg := b.check(&rs); msg != "" || rs.failed != 0 {
		t.Fatalf("check failed on an honest round: %d failed, first: %s", rs.failed, msg)
	}
	if rs.units == 0 || rs.pkts == 0 {
		t.Fatalf("round checked %d units over %d packets", rs.units, rs.pkts)
	}
	return rs
}

// reencode rewrites pkt after edit changes its decoded form.
func reencode(t *testing.T, pkt *packet.Packet, edit func(d *packet.Decoded)) *packet.Packet {
	t.Helper()
	var d packet.Decoded
	if err := d.DecodePacket(pkt); err != nil {
		t.Fatal(err)
	}
	edit(&d)
	out := d.Reencode()
	out.EgressPort = pkt.EgressPort
	return out
}

func TestKVChecksCatchSwappedValue(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		b := newKV(tinyKV, seed)
		runRound(t, b, false)
		rs := runRound(t, b, true)
		if rs.layer["kv.hit_ratio"] <= 0 || rs.layer["kv.hit_ratio"] >= 1 {
			t.Fatalf("seed %d: hit ratio %v, want strictly between 0 and 1", seed, rs.layer["kv.hit_ratio"])
		}
		// Swap the value of the first cached key in a GET reply for the
		// value of a different cached key.
		swapped := false
		for i, q := range b.reqs {
			if q.op != packet.KVGet || swapped {
				continue
			}
			for j, pr := range q.pairs {
				if pr.Key < uint32(tinyKV.CacheEntries) {
					other := (pr.Key + 1) % uint32(tinyKV.CacheEntries)
					b.adcpOut[i][0] = reencode(t, b.adcpOut[i][0], func(d *packet.Decoded) {
						d.KV.Pairs[j].Value = initialValue(seed, other)
					})
					swapped = true
					break
				}
			}
		}
		if !swapped {
			t.Fatal("no GET of a cached key to corrupt")
		}
		var bad roundStats
		msg := b.check(&bad)
		if bad.failed == 0 || !strings.Contains(msg, "value") {
			t.Fatalf("seed %d: swapped GET value not caught: %d failed, %q", seed, bad.failed, msg)
		}
	}
}

func TestPSChecksCatchWeightOffByOne(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		b := newPS(tinyPS, seed)
		runRound(t, b, false)
		rs := runRound(t, b, true)
		if rs.layer["sim.events"] == 0 || rs.layer["rmt.recirc"] == 0 {
			t.Fatalf("seed %d: traced round missing engine or recirculation counts: %v", seed, rs.layer)
		}
		h := b.runs[1].net.Host(0)
		h.Received[0] = reencode(t, h.Received[0], func(d *packet.Decoded) { d.ML.Values[0]++ })
		var bad roundStats
		msg := b.check(&bad)
		if bad.failed != 1 || !strings.Contains(msg, "weight") {
			t.Fatalf("seed %d: weight off by one not caught: %d failed, %q", seed, bad.failed, msg)
		}
	}
}

// buildADCPSim compiles cmd/adcpsim from the same source tree.
func buildADCPSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adcpsim")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/adcpsim")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build adcpsim: %v\n%s", err, out)
	}
	return bin
}

func TestExpAllChecksCatchAlteredLine(t *testing.T) {
	x, err := newExpAll(buildADCPSim(t))
	if err != nil {
		t.Fatal(err)
	}
	runRound(t, x, true)
	lines := strings.Split(x.out[0].String(), "\n")
	lines[2] += " "
	x.out[0].Reset()
	x.out[0].WriteString(strings.Join(lines, "\n"))
	var bad roundStats
	msg := x.check(&bad)
	if bad.failed != 1 || !strings.Contains(msg, "line 3") {
		t.Fatalf("altered table line not caught: %d failed, %q", bad.failed, msg)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin(spRound)
	tr.begin(spNetRun)
	tr.begin(spCoreProc)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	time.Sleep(time.Millisecond)
	tr.end()
	tr.end()
	tot := tr.snapshot()
	run, proc, root := tot[spNetRun], tot[spCoreProc], tot[spRound]
	if proc.self != proc.total || run.total != run.self+proc.total || root.total != root.self+run.total {
		t.Fatalf("self times do not tile: root %+v run %+v proc %+v", root, run, proc)
	}
	if len(tr.spans) != 3 || tr.spans[2].parent != 1 || tr.spans[1].parent != 0 {
		t.Fatalf("span tree wrong: %+v", tr.spans)
	}
}

// TestOutputContract runs the command on the smallest workload and checks
// the last line against BENCHMARK.json: the end-to-end metrics untraced,
// the per-layer metrics traced.
func TestOutputContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errb bytes.Buffer
		code := run([]string{"-workload", "ps-bottleneck", "-seed", "3", "-seconds", "0", "-trace", c.trace}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("trace %s: result %+v", c.trace, res)
		}
		var got, want []string
		for n, m := range res.Metrics {
			got = append(got, n+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trace %s: metrics\n got %v\nwant %v", c.trace, got, want)
		}
	}
}
