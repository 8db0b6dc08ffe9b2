package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/pipeline"
	"repro/internal/rmt"
	"repro/internal/tm"
)

// KVConfig sizes an in-network key/value cache (NetCache-style, §1), with
// the multi-key batching of §3.2.
type KVConfig struct {
	// KeysPerPacket is the batch width clients use.
	KeysPerPacket int
	// CacheEntries is the number of (key, value) pairs to serve from the
	// switch.
	CacheEntries int
}

// Validate checks the configuration.
func (c KVConfig) Validate() error {
	if c.KeysPerPacket <= 0 || c.CacheEntries <= 0 {
		return fmt.Errorf("apps: bad KV config %+v", c)
	}
	return nil
}

// KVCacheADCP is an ADCP switch serving a partitioned multi-key cache.
type KVCacheADCP struct {
	*core.Switch
	cfg  KVConfig
	part *tm.HashPartitioner
}

// NewKVCacheADCP builds the switch: TM1 partitions request packets by the
// hash of their first key (clients batch partition-aligned, see
// PartitionKV), and the central program matches the whole batch against
// the partition's shared cache table in one traversal. The batch keys
// travel the pipeline as one array (§3.2), so the PHV budget must offer
// an array container to hold them.
func NewKVCacheADCP(cfg core.Config, kv KVConfig) (*KVCacheADCP, error) {
	if err := kv.Validate(); err != nil {
		return nil, err
	}
	if _, err := phv.NewLayout(cfg.Pipe.PHVBudget).AllocArray("kv_keys"); err != nil {
		return nil, fmt.Errorf("apps: KV cache needs an array container: %w", err)
	}
	part := tm.NewHashPartitioner(cfg.CentralPipelines)
	central := &pipeline.Program{
		Name: "kvcache-central",
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoKV {
					return nil
				}
				kvh := &ctx.Decoded.KV
				switch kvh.Op {
				case packet.KVGet:
					var sc batchScratch
					keys, results, hits := sc.slices(len(kvh.Pairs))
					for i := range kvh.Pairs {
						keys[i] = uint64(kvh.Pairs[i].Key)
					}
					if _, err := st.Mem.LookupBatch(keys, results, hits); err != nil {
						return err
					}
					allHit := true
					var hitKeys, missKeys uint64
					for i := range kvh.Pairs {
						if hits[i] {
							kvh.Pairs[i].Value = uint32(results[i].Params[0])
							hitKeys++
						} else {
							allHit = false
							missKeys++
						}
					}
					st.Regs.Execute(mat.RegAdd, 0, hitKeys)  // per-key hit counter
					st.Regs.Execute(mat.RegAdd, 1, missKeys) // per-key miss counter
					if allHit {
						kvh.Op = packet.KVHit
					} else {
						kvh.Op = packet.KVMiss
					}
				case packet.KVPut:
					for _, p := range kvh.Pairs {
						if err := st.Mem.Install(uint64(p.Key), mat.Result{Params: [2]uint64{uint64(p.Value), 0}}); err != nil {
							return err
						}
					}
					kvh.Op = packet.KVHit
				}
				ctx.Modified = true
				ctx.Egress = int(ctx.Decoded.Base.SrcPort) // reply to client
				return nil
			},
		},
	}
	sw, err := core.New(cfg, core.Programs{Central: central})
	if err != nil {
		return nil, err
	}
	sw.SetPartition(func(ctx *pipeline.Context) int {
		if ctx.Decoded.Base.Proto == packet.ProtoKV && len(ctx.Decoded.KV.Pairs) > 0 {
			return part.Place(uint64(ctx.Decoded.KV.Pairs[0].Key))
		}
		return int(ctx.Decoded.Base.CoflowID) % cfg.CentralPipelines
	})
	return &KVCacheADCP{Switch: sw, cfg: kv, part: part}, nil
}

// Install loads a cache entry into its home partition. SRAM cost: one
// entry, once.
func (k *KVCacheADCP) Install(key, value uint32) error {
	cp := k.part.Place(uint64(key))
	return k.Central(cp).Stage(0).Mem.Install(uint64(key), mat.Result{Params: [2]uint64{uint64(value), 0}})
}

// PartitionOf returns the central pipeline that owns a key.
func (k *KVCacheADCP) PartitionOf(key uint32) int { return k.part.Place(uint64(key)) }

// SRAMUsed sums cache SRAM entries across the global area.
func (k *KVCacheADCP) SRAMUsed() int {
	n := 0
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// Hits returns the aggregate per-key hit counter.
func (k *KVCacheADCP) Hits() uint64 {
	var n uint64
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Regs.Peek(0)
	}
	return n
}

// Misses returns the aggregate per-key miss counter.
func (k *KVCacheADCP) Misses() uint64 {
	var n uint64
	for i := 0; i < k.Config().CentralPipelines; i++ {
		n += k.Central(i).Stage(0).Regs.Peek(1)
	}
	return n
}

// batchScratch holds one LookupBatch call's operands. As a local of the
// stage function it lives on the stack, so nothing is shared between
// pipelines or switches; a batch wider than a default stage's MAUs falls
// back to the heap.
type batchScratch struct {
	keys    [mat.StageMAUs]uint64
	results [mat.StageMAUs]mat.Result
	hits    [mat.StageMAUs]bool
}

// slices returns n-element views of the scratch arrays.
func (b *batchScratch) slices(n int) ([]uint64, []mat.Result, []bool) {
	if n > mat.StageMAUs {
		return make([]uint64, n), make([]mat.Result, n), make([]bool, n)
	}
	return b.keys[:n], b.results[:n], b.hits[:n]
}

// KVCacheRMT is the restructured RMT deployment: the cache lives in every
// ingress pipeline (clients connect anywhere), and each stage-0 memory is
// replicated KeysPerPacket-fold so a batch can match in one traversal —
// Figure 3's cost, paid in SRAM: entries × replication × pipelines.
type KVCacheRMT struct {
	*rmt.Switch
	cfg KVConfig
}

// NewKVCacheRMT builds the switch. The per-copy table capacity shrinks by
// the replication factor; an Install that no longer fits returns
// mat.ErrTableFull — the capacity loss the paper plots.
func NewKVCacheRMT(cfg rmt.Config, kv KVConfig) (*KVCacheRMT, error) {
	if err := kv.Validate(); err != nil {
		return nil, err
	}
	if kv.KeysPerPacket > cfg.Pipe.MAUsPerStage {
		return nil, fmt.Errorf("apps: %d keys/packet exceeds %d MAUs", kv.KeysPerPacket, cfg.Pipe.MAUsPerStage)
	}
	ingress := &pipeline.Program{
		Name: "kvcache-rmt",
		Funcs: []pipeline.StageFunc{
			func(st *pipeline.Stage, ctx *pipeline.Context) error {
				if ctx.Decoded.Base.Proto != packet.ProtoKV {
					return nil
				}
				kvh := &ctx.Decoded.KV
				switch kvh.Op {
				case packet.KVGet:
					var sc batchScratch
					keys, results, hits := sc.slices(len(kvh.Pairs))
					for i, p := range kvh.Pairs {
						keys[i] = uint64(p.Key)
					}
					if _, err := st.Mem.LookupBatch(keys, results, hits); err != nil {
						return err
					}
					allHit := true
					for i := range kvh.Pairs {
						if hits[i] {
							kvh.Pairs[i].Value = uint32(results[i].Params[0])
						} else {
							allHit = false
						}
					}
					if allHit {
						kvh.Op = packet.KVHit
					} else {
						kvh.Op = packet.KVMiss
					}
				case packet.KVPut:
					for _, p := range kvh.Pairs {
						if err := st.Mem.Install(uint64(p.Key), mat.Result{Params: [2]uint64{uint64(p.Value), 0}}); err != nil {
							return err
						}
					}
					kvh.Op = packet.KVHit
				}
				ctx.Modified = true
				ctx.Egress = int(ctx.Decoded.Base.SrcPort)
				return nil
			},
		},
	}
	sw, err := rmt.New(cfg, ingress, nil)
	if err != nil {
		return nil, err
	}
	for pl := 0; pl < cfg.Pipelines; pl++ {
		if err := sw.Ingress(pl).Stage(0).Mem.ConfigureReplication(kv.KeysPerPacket); err != nil {
			return nil, err
		}
	}
	return &KVCacheRMT{Switch: sw, cfg: kv}, nil
}

// Install loads a cache entry into EVERY ingress pipeline (clients may
// arrive on any of them), each of which holds KeysPerPacket replicated
// copies. SRAM cost: pipelines × replication entries.
func (k *KVCacheRMT) Install(key, value uint32) error {
	for pl := 0; pl < k.Config().Pipelines; pl++ {
		if err := k.Ingress(pl).Stage(0).Mem.Install(uint64(key), mat.Result{Params: [2]uint64{uint64(value), 0}}); err != nil {
			return err
		}
	}
	return nil
}

// SRAMUsed sums cache SRAM entries across all ingress pipelines.
func (k *KVCacheRMT) SRAMUsed() int {
	n := 0
	for pl := 0; pl < k.Config().Pipelines; pl++ {
		n += k.Ingress(pl).Stage(0).Mem.SRAMUsed()
	}
	return n
}

// EffectiveCapacity returns distinct cache entries one pipeline can hold.
func (k *KVCacheRMT) EffectiveCapacity() int {
	return k.Ingress(0).Stage(0).Mem.EffectiveCapacity()
}

// PartitionKV regroups a batch of pairs so each output batch contains only
// keys of one ADCP partition (what a partition-aware client library does).
// Batches are capped at maxBatch pairs and come in partition order, each
// keeping its pairs' input order. All batches share one backing array;
// each is capped at its own length, so appending to one cannot overwrite
// the next.
func PartitionKV(pairs []packet.KVPair, partitions, maxBatch int) [][]packet.KVPair {
	if len(pairs) == 0 {
		return nil
	}
	part := tm.NewHashPartitioner(partitions)
	// Counting sort by home partition: end[i] first counts partition i's
	// keys, then is its next free slot and, once all are placed, the end
	// of its run.
	end := make([]int, partitions)
	for _, p := range pairs {
		end[part.Place(uint64(p.Key))]++
	}
	batches, off := 0, 0
	for i, n := range end {
		end[i] = off
		off += n
		batches += (n + maxBatch - 1) / maxBatch
	}
	sorted := make([]packet.KVPair, len(pairs))
	for _, p := range pairs {
		i := part.Place(uint64(p.Key))
		sorted[end[i]] = p
		end[i]++
	}
	out := make([][]packet.KVPair, 0, batches)
	lo := 0
	for _, hi := range end {
		for lo < hi {
			n := min(maxBatch, hi-lo)
			out = append(out, sorted[lo:lo+n:lo+n])
			lo += n
		}
	}
	return out
}
