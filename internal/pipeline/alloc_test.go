package pipeline

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
)

// TestTraversalAllocsSteadyState pins the tentpole claim at the pipeline
// layer: once the context free list, PHV pool, and bound-parser buffers
// are warm, a full parse → stages → release traversal allocates nothing —
// on the scalar RMT layout and on the ADCP layout with array containers.
// A traversal whose stage sets ctx.Modified also deparses, which builds
// the new packet and nothing else: exactly the Packet and its bytes.
func TestTraversalAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		arrays   bool
		modified bool
		want     float64
	}{
		{"RMT", DefaultRMTConfig(), false, false, 0},
		{"ADCP", DefaultADCPConfig(), true, false, 0},
		{"RMT-modified", DefaultRMTConfig(), false, true, 2},
		{"ADCP-modified", DefaultADCPConfig(), true, true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layout := testLayout(t, tc.cfg.PHVBudget)
			if tc.arrays {
				for _, name := range []string{"kv_keys", "kv_values"} {
					if _, err := layout.AllocArray(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			p, err := New(tc.cfg, NewParser(packet.StandardGraph(), layout))
			if err != nil {
				t.Fatal(err)
			}
			prog := &Program{
				Name:   "alloc-probe",
				Funcs:  make([]StageFunc, tc.cfg.Stages),
				Layout: layout,
			}
			// A stateful stage plus a PHV-reading stage, so the traversal
			// exercises register RMW and container access, not just parse.
			prog.Funcs[0] = func(s *Stage, ctx *Context) error {
				_, err := s.RegisterRMW(mat.RegAdd, 0, 1)
				return err
			}
			id := layout.Lookup("coflow_id")
			prog.Funcs[5] = func(s *Stage, ctx *Context) error {
				ctx.Egress = int(ctx.PHV.Get(id) % 4)
				ctx.Modified = tc.modified
				return nil
			}
			pkt := kvPacket(4)
			for i := 0; i < 8; i++ { // warm pools and free lists
				ctx, err := p.Process(pkt, prog)
				if err != nil {
					t.Fatal(err)
				}
				p.Release(ctx)
			}
			allocs := testing.AllocsPerRun(100, func() {
				ctx, err := p.Process(pkt, prog)
				if err != nil {
					t.Fatal(err)
				}
				p.Release(ctx)
			})
			if allocs > tc.want {
				t.Fatalf("traversal allocates %.1f objects per packet, want %.0f", allocs, tc.want)
			}
		})
	}
}

// TestReleaseIsIdempotent: double Release must not hand the same context
// out twice (the free list would then serve one context to two packets).
func TestReleaseIsIdempotent(t *testing.T) {
	p, _ := newTestPipeline(t, DefaultRMTConfig())
	ctx, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(ctx)
	p.Release(ctx)
	a, err := p.Process(kvPacket(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Process(kvPacket(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("double Release served one context to two live packets")
	}
	p.Release(a)
	p.Release(b)
}

// TestBoundParseMatchesMapParse runs the same packets through the bound
// (flat) parser and the legacy map path and demands identical PHV
// contents, cycle counts, and decode results.
func TestBoundParseMatchesMapParse(t *testing.T) {
	cfg := DefaultADCPConfig()
	build := func(bound bool) (*Pipeline, *phv.Layout) {
		layout := testLayout(t, cfg.PHVBudget)
		for _, name := range []string{"kv_keys", "kv_values"} {
			if _, err := layout.AllocArray(name); err != nil {
				t.Fatal(err)
			}
		}
		parser := NewParser(packet.StandardGraph(), layout)
		if !bound {
			parser.bound = nil // force the legacy map path
		}
		p, err := New(cfg, parser)
		if err != nil {
			t.Fatal(err)
		}
		return p, layout
	}
	flat, flatLayout := build(true)
	legacy, legacyLayout := build(false)
	if flat.parser.bound == nil {
		t.Fatal("standard graph did not bind")
	}
	for _, n := range []int{0, 1, 3, 8} {
		pkt := kvPacket(n)
		fc, err := flat.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := legacy.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Cycles != lc.Cycles {
			t.Fatalf("n=%d: bound cycles %d, legacy %d", n, fc.Cycles, lc.Cycles)
		}
		for _, name := range []string{"dst_port", "proto", "coflow_id", "kv_op", "kv_count"} {
			fv := fc.PHV.Get(flatLayout.Lookup(name))
			lv := lc.PHV.Get(legacyLayout.Lookup(name))
			if fv != lv {
				t.Fatalf("n=%d: field %s: bound %d, legacy %d", n, name, fv, lv)
			}
		}
		fk := fc.PHV.Array(flatLayout.Lookup("kv_keys"))
		lk := lc.PHV.Array(legacyLayout.Lookup("kv_keys"))
		if len(fk) != len(lk) {
			t.Fatalf("n=%d: kv_keys len: bound %d, legacy %d", n, len(fk), len(lk))
		}
		for i := range fk {
			if fk[i] != lk[i] {
				t.Fatalf("n=%d: kv_keys[%d]: bound %d, legacy %d", n, i, fk[i], lk[i])
			}
		}
		flat.Release(fc)
		legacy.Release(lc)
	}
}

// TestSharedParserConcurrentPipelines: one bound Parser serves several
// pipelines at once. Each pipeline, on its own goroutine, must parse
// exactly what a pipeline with a private parser parses; run under -race
// this also proves the shared program is read-only.
func TestSharedParserConcurrentPipelines(t *testing.T) {
	cfg := DefaultADCPConfig()
	layout := testLayout(t, cfg.PHVBudget)
	if _, err := layout.AllocArray("kv_keys"); err != nil {
		t.Fatal(err)
	}
	shared := NewParser(packet.StandardGraph(), layout)
	if shared.bound == nil {
		t.Fatal("standard graph did not bind")
	}
	count, keys := layout.Lookup("kv_count"), layout.Lookup("kv_keys")
	parse := func(p *Pipeline, n int) (uint64, []uint32, int) {
		ctx, err := p.Process(kvPacket(n), nil)
		if err != nil {
			t.Error(err)
			return 0, nil, 0
		}
		defer p.Release(ctx)
		return ctx.PHV.Get(count), append([]uint32(nil), ctx.PHV.Array(keys)...), ctx.Cycles
	}
	ref, err := New(cfg, NewParser(packet.StandardGraph(), layout))
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantKeys, wantCycles := make([]uint64, 9), make([][]uint32, 9), make([]int, 9)
	for n := range wantCount {
		wantCount[n], wantKeys[n], wantCycles[n] = parse(ref, n)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		p, err := New(cfg, shared)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := (round*7 + w) % 9
				c, k, cyc := parse(p, n)
				if c != wantCount[n] || cyc != wantCycles[n] || len(k) != len(wantKeys[n]) {
					t.Errorf("worker %d n=%d: count %d cycles %d keys %v, want %d %d %v",
						w, n, c, cyc, k, wantCount[n], wantCycles[n], wantKeys[n])
					return
				}
				for i := range k {
					if k[i] != wantKeys[n][i] {
						t.Errorf("worker %d n=%d: keys %v, want %v", w, n, k, wantKeys[n])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
