package pipeline

import "testing"

// TestTraversalAccountingObservedEqualsUnobserved pins the traversal
// loop's cycle accounting: for every program shape, a pipeline with an
// observer installed and one without must charge the same cycles per
// pass, the same cumulative StageCycles and the same packet, drop and
// recirculation counts, and each pass must cost exactly its parse states
// plus the stages it paid for (plus one when it deparses).
func TestTraversalAccountingObservedEqualsUnobserved(t *testing.T) {
	const stages = 12
	const parseStates = 2 // base + kv for kvPacket
	set := func(v Verdict) StageFunc {
		return func(s *Stage, ctx *Context) error { ctx.Verdict = v; return nil }
	}
	nop := func(s *Stage, ctx *Context) error { return nil }
	sparse := func(at5 StageFunc) *Program {
		funcs := make([]StageFunc, stages)
		funcs[0], funcs[5] = nop, at5
		return &Program{Name: "sparse", Funcs: funcs}
	}
	full := make([]StageFunc, stages)
	for i := range full {
		full[i] = nop
	}
	long := make([]StageFunc, stages+3)
	long[3] = nop
	long[stages+1] = set(VerdictDrop) // beyond the last stage: never runs
	// recircOnce recirculates on the first pass and forwards on the next.
	recircOnce := func(s *Stage, ctx *Context) error {
		if ctx.Scratch[0] == 0 {
			ctx.Scratch[0] = 1
			ctx.Verdict = VerdictRecirculate
		}
		return nil
	}

	cases := []struct {
		name string
		prog *Program
		// paid is the stage cycles each pass pays; deparse marks passes
		// that re-encode the packet.
		paid    []int
		deparse bool
		drops   uint64
		recircs uint64
	}{
		{name: "nil program", prog: nil, paid: []int{stages}},
		{name: "sparse", prog: sparse(nop), paid: []int{stages}},
		{name: "drop at 0", prog: &Program{Funcs: []StageFunc{set(VerdictDrop), nil, nil, nil, nil, nop}}, paid: []int{1}, drops: 1},
		{name: "drop at 5", prog: sparse(set(VerdictDrop)), paid: []int{6}, drops: 1},
		{name: "consume at 0", prog: &Program{Funcs: []StageFunc{set(VerdictConsume), nil, nil, nil, nil, nop}}, paid: []int{1}},
		{name: "consume at 5", prog: sparse(set(VerdictConsume)), paid: []int{6}},
		{name: "full pass", prog: &Program{Funcs: full}, paid: []int{stages}},
		{name: "funcs longer than stages", prog: &Program{Funcs: long}, paid: []int{stages}},
		{name: "funcs shorter than stages", prog: &Program{Funcs: []StageFunc{nil, nil, nop}}, paid: []int{stages}},
		{name: "modified deparse", prog: sparse(func(s *Stage, ctx *Context) error {
			ctx.Modified = true
			return nil
		}), paid: []int{stages}, deparse: true},
		{name: "resume pass", prog: sparse(recircOnce), paid: []int{stages, stages}, recircs: 1},
	}

	type outcome struct {
		cycles                               []int
		stageCycles, packets, drops, recircs uint64
	}
	run := func(t *testing.T, prog *Program, observed bool) (outcome, *Recorder) {
		t.Helper()
		p := newTestPipeline(t, DefaultRMTConfig())
		var rec *Recorder
		if observed {
			rec = &Recorder{}
			p.SetObserver(rec.Observe)
		}
		ctx, err := p.Process(kvPacket(2), prog)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release(ctx)
		var o outcome
		o.cycles = append(o.cycles, ctx.Cycles)
		for ctx.Verdict == VerdictRecirculate {
			if err := p.Resume(ctx, prog); err != nil {
				t.Fatal(err)
			}
			o.cycles = append(o.cycles, ctx.Cycles)
		}
		o.stageCycles, o.packets, o.drops, o.recircs = p.StageCycles(), p.Packets(), p.Drops(), p.Recirculations()
		return o, rec
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := run(t, tc.prog, false)
			seen, rec := run(t, tc.prog, true)
			if len(plain.cycles) != len(seen.cycles) {
				t.Fatalf("passes: unobserved %d, observed %d", len(plain.cycles), len(seen.cycles))
			}
			for i := range plain.cycles {
				if plain.cycles[i] != seen.cycles[i] {
					t.Errorf("pass %d cycles: unobserved %d, observed %d", i, plain.cycles[i], seen.cycles[i])
				}
			}
			if plain.stageCycles != seen.stageCycles || plain.packets != seen.packets ||
				plain.drops != seen.drops || plain.recircs != seen.recircs {
				t.Errorf("counters: unobserved %+v, observed %+v", plain, seen)
			}

			if len(plain.cycles) != len(tc.paid) {
				t.Fatalf("passes = %d, want %d", len(plain.cycles), len(tc.paid))
			}
			var wantStageCycles uint64
			for i, paid := range tc.paid {
				want := parseStates + paid
				wantStageCycles += uint64(want)
				if tc.deparse {
					want++
				}
				if plain.cycles[i] != want {
					t.Errorf("pass %d cycles = %d, want %d parse + %d stages (deparse %v)",
						i, plain.cycles[i], parseStates, paid, tc.deparse)
				}
			}
			if plain.stageCycles != wantStageCycles {
				t.Errorf("StageCycles = %d, want %d", plain.stageCycles, wantStageCycles)
			}
			if plain.packets != uint64(len(tc.paid)) || plain.drops != tc.drops || plain.recircs != tc.recircs {
				t.Errorf("packets/drops/recircs = %d/%d/%d, want %d/%d/%d",
					plain.packets, plain.drops, plain.recircs, len(tc.paid), tc.drops, tc.recircs)
			}
			var paidTotal int
			for _, paid := range tc.paid {
				paidTotal += paid
			}
			if got := len(rec.Stages()); got != paidTotal {
				t.Errorf("observer saw %d stage events, want %d", got, paidTotal)
			}
		})
	}
}
