package pipeline

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
)

// TestTraversalAllocsSteadyState pins the tentpole claim at the pipeline
// layer: once the context free list is warm, a full parse → stages →
// release traversal allocates nothing, on the scalar RMT and the
// array-memory ADCP configuration alike. A traversal whose stage sets
// ctx.Modified also deparses, which builds the new packet and nothing
// else: exactly the Packet and its bytes.
func TestTraversalAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		modified bool
		want     float64
	}{
		{"RMT", DefaultRMTConfig(), false, 0},
		{"ADCP", DefaultADCPConfig(), false, 0},
		{"RMT-modified", DefaultRMTConfig(), true, 2},
		{"ADCP-modified", DefaultADCPConfig(), true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPipeline(t, tc.cfg)
			prog := &Program{
				Name:  "alloc-probe",
				Funcs: make([]StageFunc, tc.cfg.Stages),
			}
			// A stateful stage plus a header-reading stage, so the
			// traversal exercises register RMW and header access, not
			// just parse.
			prog.Funcs[0] = func(s *Stage, ctx *Context) error {
				_, err := s.RegisterRMW(mat.RegAdd, 0, 1)
				return err
			}
			prog.Funcs[5] = func(s *Stage, ctx *Context) error {
				ctx.Egress = int(ctx.Decoded.Base.CoflowID % 4)
				ctx.Modified = tc.modified
				return nil
			}
			pkt := kvPacket(4)
			for i := 0; i < 8; i++ { // warm the free list
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
	p := newTestPipeline(t, DefaultRMTConfig())
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

// TestBoundParseMatchesMapParse checks a pipeline's parse against the
// map-based reference parser (ParseGraph.Run): the pipeline must charge
// exactly the reference's states visited as parse cycles, and the decoded
// headers the stages read must carry the values the reference extracts.
func TestBoundParseMatchesMapParse(t *testing.T) {
	p := newTestPipeline(t, DefaultADCPConfig())
	ref := packet.StandardGraph()
	for _, n := range []int{0, 1, 3, 8, 16, 18} {
		pkt := kvPacket(n)
		want, err := ref.Run(pkt.Data, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := p.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if parse := ctx.Cycles - p.NumStages(); parse != want.StatesVisited {
			t.Fatalf("n=%d: pipeline parse cycles %d, reference states %d", n, parse, want.StatesVisited)
		}
		d := &ctx.Decoded
		for name, got := range map[string]uint64{
			"dst_port":  uint64(d.Base.DstPort),
			"proto":     uint64(d.Base.Proto),
			"coflow_id": uint64(d.Base.CoflowID),
			"kv_op":     uint64(d.KV.Op),
			"kv_count":  uint64(len(d.KV.Pairs)),
		} {
			if got != want.Fields[name] {
				t.Fatalf("n=%d: field %s: decoded %d, reference %d", n, name, got, want.Fields[name])
			}
		}
		// The reference lifts at most one array width of keys.
		keys := want.Arrays["kv_keys"]
		if wantLen := min(n, 16); len(keys) != wantLen {
			t.Fatalf("n=%d: reference lifted %d keys, want %d", n, len(keys), wantLen)
		}
		for i, k := range keys {
			if d.KV.Pairs[i].Key != k {
				t.Fatalf("n=%d: kv_keys[%d]: decoded %d, reference %d", n, i, d.KV.Pairs[i].Key, k)
			}
		}
		p.Release(ctx)
	}
}

// TestSharedParserConcurrentPipelines: one bound parser serves several
// pipelines at once. Each pipeline, on its own goroutine, must parse
// exactly what a pipeline with a private parser parses; run under -race
// this also proves the shared parser is read-only.
func TestSharedParserConcurrentPipelines(t *testing.T) {
	cfg := DefaultADCPConfig()
	shared := standardParser(t)
	parse := func(p *Pipeline, n int) (int, []uint32, int) {
		ctx, err := p.Process(kvPacket(n), nil)
		if err != nil {
			t.Error(err)
			return 0, nil, 0
		}
		defer p.Release(ctx)
		var keys []uint32
		for _, pair := range ctx.Decoded.KV.Pairs {
			keys = append(keys, pair.Key)
		}
		return len(ctx.Decoded.KV.Pairs), keys, ctx.Cycles
	}
	ref := newTestPipeline(t, cfg)
	wantCount, wantKeys, wantCycles := make([]int, 9), make([][]uint32, 9), make([]int, 9)
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
