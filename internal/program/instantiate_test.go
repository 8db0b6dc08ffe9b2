package program

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/pipeline"
)

func buildPipeline(t *testing.T, cfg pipeline.Config) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(cfg, pipeline.NewParser(packet.StandardGraph(), pipeline.StandardLayout(cfg.PHVBudget)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBindScalarWithReplication(t *testing.T) {
	spec := &Spec{
		Name: "bound",
		Tables: []TableSpec{
			{Name: "cache", Kind: MatchExact, Entries: 1024, KeysPerPacket: 4},
		},
		Registers: []RegisterSpec{{Name: "hits", Cells: 128}},
		Deps:      [][2]string{{"cache", "hits"}},
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	pipe := buildPipeline(t, pipeline.DefaultRMTConfig())
	b, err := Bind(pl, pipe)
	if err != nil {
		t.Fatal(err)
	}
	h := b.Tables["cache"]
	if h == nil || h.Replication != 4 {
		t.Fatalf("handle %+v", h)
	}
	// The stage memory was reconfigured for 4-way replication.
	if got := pipe.Stage(h.Stage).Mem.Parallelism(); got != 4 {
		t.Errorf("stage parallelism = %d", got)
	}
	// Install through the handle, batch-match 4 keys in one traversal.
	for k := uint64(1); k <= 4; k++ {
		if err := h.Install(k, mat.Result{ActionID: int(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Installed() != 4 {
		t.Errorf("Installed = %d", h.Installed())
	}
	results := make([]mat.Result, 4)
	hits := make([]bool, 4)
	cyc, err := h.LookupBatch([]uint64{1, 2, 3, 4}, results, hits)
	if err != nil || cyc != 1 {
		t.Fatalf("batch: %d %v", cyc, err)
	}
	for i := range hits {
		if !hits[i] || results[i].ActionID != i+1 {
			t.Errorf("key %d missed", i+1)
		}
	}
	// Register handle works and lives strictly after the table's stage.
	r := b.Registers["hits"]
	if r == nil || r.Stage <= h.Stage {
		t.Fatalf("register handle %+v vs table stage %d", r, h.Stage)
	}
	r.Execute(mat.RegAdd, 0, 7)
	if r.Peek(0) != 7 {
		t.Error("register write lost")
	}
}

func TestBindADCPNoReconfiguration(t *testing.T) {
	spec := &Spec{
		Name:   "adcpbound",
		Tables: []TableSpec{{Name: "t", Kind: MatchExact, Entries: 512, KeysPerPacket: 16}},
	}
	pl, err := Compile(spec, ADCPTarget())
	if err != nil {
		t.Fatal(err)
	}
	pipe := buildPipeline(t, pipeline.DefaultADCPConfig())
	b, err := Bind(pl, pipe)
	if err != nil {
		t.Fatal(err)
	}
	h := b.Tables["t"]
	if h.Replication != 1 {
		t.Errorf("ADCP replication = %d", h.Replication)
	}
	if pipe.Stage(h.Stage).Mem.Parallelism() != 16 {
		t.Error("array parallelism lost")
	}
}

func TestBindTooFewStages(t *testing.T) {
	spec := &Spec{Name: "deep"}
	var prev string
	for i := 0; i < 6; i++ {
		n := string(rune('a' + i))
		spec.Tables = append(spec.Tables, TableSpec{Name: n, Kind: MatchExact, Entries: 8, KeysPerPacket: 1})
		if prev != "" {
			spec.Deps = append(spec.Deps, [2]string{prev, n})
		}
		prev = n
	}
	pl, err := Compile(spec, RMTTarget())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultRMTConfig()
	cfg.Stages = 4 // fewer than the placement needs
	pipe := buildPipeline(t, cfg)
	if _, err := Bind(pl, pipe); err == nil {
		t.Error("placement bound to a too-short pipeline")
	}
}

func TestBindConflictingReplicationInStage(t *testing.T) {
	// Force two tables with different k into one stage by hand-crafting a
	// placement (the compiler may or may not produce one; Bind must
	// reject it regardless).
	pl := &Placement{
		Tables: map[string]TablePlacement{
			"a": {Stage: 0, Replication: 2, SRAMEntries: 16},
			"b": {Stage: 0, Replication: 4, SRAMEntries: 16},
		},
		Registers:  map[string]int{},
		StagesUsed: 1,
		Layout:     phv.NewLayout(phv.DefaultBudget),
	}
	pipe := buildPipeline(t, pipeline.DefaultRMTConfig())
	if _, err := Bind(pl, pipe); err == nil {
		t.Error("conflicting per-stage replication accepted")
	}
}
