package apps

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tm"
)

func kvGet(src int, keys ...uint32) *packet.Packet {
	pairs := make([]packet.KVPair, len(keys))
	for i, k := range keys {
		pairs[i] = packet.KVPair{Key: k}
	}
	p := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: uint16(src), CoflowID: 9},
		&packet.KVHeader{Op: packet.KVGet, Pairs: pairs})
	p.IngressPort = src
	return p
}

func TestKVCacheADCPHitsAndMisses(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 8, CacheEntries: 100}
	sw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	// Install keys 1..100 with value = key*10, partition-aware batching.
	for k := uint32(1); k <= 100; k++ {
		if err := sw.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	// SRAM cost: exactly 100 entries across the global area.
	if sw.SRAMUsed() != 100 {
		t.Errorf("SRAM = %d, want 100 (no replication)", sw.SRAMUsed())
	}
	// A GET batch whose keys share a partition.
	batches := PartitionKV([]packet.KVPair{
		{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}, {Key: 5}, {Key: 6}, {Key: 7}, {Key: 8},
	}, sw.Config().CentralPipelines, 8)
	total := 0
	for _, batch := range batches {
		keys := make([]uint32, len(batch))
		for i, p := range batch {
			keys[i] = p.Key
		}
		out, err := sw.Process(kvGet(2, keys...))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].EgressPort != 2 {
			t.Fatalf("reply = %v", out)
		}
		var d packet.Decoded
		if err := d.DecodePacket(out[0]); err != nil {
			t.Fatal(err)
		}
		if d.KV.Op != packet.KVHit {
			t.Errorf("op = %v, want hit", d.KV.Op)
		}
		for _, pr := range d.KV.Pairs {
			if pr.Value != pr.Key*10 {
				t.Errorf("key %d value %d", pr.Key, pr.Value)
			}
			total++
		}
	}
	if total != 8 {
		t.Errorf("total pairs served = %d", total)
	}
	if sw.Hits() != 8 {
		t.Errorf("Hits = %d, want 8", sw.Hits())
	}
	// Miss path.
	out, err := sw.Process(kvGet(3, 9999))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVMiss {
		t.Errorf("op = %v, want miss", d.KV.Op)
	}
}

func TestKVCacheADCPPut(t *testing.T) {
	sw, err := NewKVCacheADCP(smallADCP(), KVConfig{KeysPerPacket: 4, CacheEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	put := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: 1, CoflowID: 9},
		&packet.KVHeader{Op: packet.KVPut, Pairs: []packet.KVPair{{Key: 42, Value: 777}}})
	put.IngressPort = 1
	if _, err := sw.Process(put); err != nil {
		t.Fatal(err)
	}
	out, err := sw.Process(kvGet(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVHit || d.KV.Pairs[0].Value != 777 {
		t.Errorf("after PUT: %+v", d.KV)
	}
}

func TestKVCacheRMTReplicationCost(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 8, CacheEntries: 100}
	cfg := smallRMT()
	sw, err := NewKVCacheRMT(cfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 100; k++ {
		if err := sw.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	// SRAM cost: 100 entries × 8 copies × 2 pipelines = 1600.
	if sw.SRAMUsed() != 1600 {
		t.Errorf("SRAM = %d, want 1600 (Figure 3 replication × pipeline copies)", sw.SRAMUsed())
	}
	// Effective capacity per pipeline = 4096/8.
	if got := sw.EffectiveCapacity(); got != 512 {
		t.Errorf("effective capacity = %d, want 512", got)
	}
	// Lookups still work, from any client port, one traversal.
	out, err := sw.Process(kvGet(5, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	d.DecodePacket(out[0])
	if d.KV.Op != packet.KVHit {
		t.Errorf("op = %v", d.KV.Op)
	}
	for _, pr := range d.KV.Pairs {
		if pr.Value != pr.Key*10 {
			t.Errorf("key %d value %d", pr.Key, pr.Value)
		}
	}
}

func TestKVCacheRMTCapacityExhaustion(t *testing.T) {
	// 4096-entry stages with 16-fold replication hold 256 distinct keys;
	// entry 257 must fail — the Figure 3 capacity loss made concrete.
	kv := KVConfig{KeysPerPacket: 16, CacheEntries: 300}
	sw, err := NewKVCacheRMT(smallRMT(), kv)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for k := uint32(0); k < 300; k++ {
		if err := sw.Install(k, k); err != nil {
			failed++
		}
	}
	if failed != 300-256 {
		t.Errorf("failed installs = %d, want 44", failed)
	}
	// The ADCP build holds all 300 with room to spare.
	asw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 300; k++ {
		if err := asw.Install(k, k); err != nil {
			t.Fatalf("ADCP install %d: %v", k, err)
		}
	}
}

func TestKVCacheRMTTooManyKeys(t *testing.T) {
	if _, err := NewKVCacheRMT(smallRMT(), KVConfig{KeysPerPacket: 32, CacheEntries: 1}); err == nil {
		t.Error("32 keys over 16 MAUs accepted")
	}
}

func TestKVCacheValidation(t *testing.T) {
	if _, err := NewKVCacheADCP(smallADCP(), KVConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewKVCacheRMT(smallRMT(), KVConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPartitionKV(t *testing.T) {
	pairs := make([]packet.KVPair, 100)
	for i := range pairs {
		pairs[i] = packet.KVPair{Key: uint32(i)}
	}
	batches := PartitionKV(pairs, 4, 8)
	seen := 0
	sw, _ := NewKVCacheADCP(smallADCP(), KVConfig{KeysPerPacket: 8, CacheEntries: 1})
	for _, b := range batches {
		if len(b) == 0 || len(b) > 8 {
			t.Fatalf("batch size %d", len(b))
		}
		// All keys of a batch share a partition.
		p0 := sw.PartitionOf(b[0].Key)
		for _, pr := range b {
			if sw.PartitionOf(pr.Key) != p0 {
				t.Fatal("mixed-partition batch")
			}
			seen++
		}
	}
	if seen != 100 {
		t.Errorf("covered %d pairs", seen)
	}
}

func TestKVCacheEndToEndNetwork(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 4, CacheEntries: 50}
	sw, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 50; k++ {
		sw.Install(k, k+1000)
	}
	n, err := netsim.New(netsim.DefaultConfig(8), sw)
	if err != nil {
		t.Fatal(err)
	}
	// Each host sends a single-partition batch.
	sent := 0
	for h := 0; h < 8; h++ {
		batches := PartitionKV([]packet.KVPair{{Key: uint32(h)}, {Key: uint32(h + 8)}}, 4, 4)
		for _, b := range batches {
			keys := make([]uint32, len(b))
			for i, p := range b {
				keys[i] = p.Key
			}
			n.SendAt(h, kvGet(h, keys...), 0)
			sent++
		}
	}
	n.Tracker().Expect(9, sent)
	n.Run()
	if int(n.Delivered()) != sent {
		t.Errorf("delivered %d of %d; errs %v", n.Delivered(), sent, n.Errors())
	}
	for h := 0; h < 8; h++ {
		for _, p := range n.Host(h).Received {
			var d packet.Decoded
			if err := d.DecodePacket(p); err != nil {
				t.Fatal(err)
			}
			if d.KV.Op != packet.KVHit {
				t.Errorf("host %d got %v", h, d.KV.Op)
			}
		}
	}
}

// TestKVCacheProcessAllocs pins the steady-state switch path of both
// caches: a warm 8-key GET or PUT costs the reply packet, its bytes and
// the returned slice, and nothing else (no per-call batch scratch).
func TestKVCacheProcessAllocs(t *testing.T) {
	kv := KVConfig{KeysPerPacket: 8, CacheEntries: 64}
	adcp, err := NewKVCacheADCP(smallADCP(), kv)
	if err != nil {
		t.Fatal(err)
	}
	rmtSw, err := NewKVCacheRMT(smallRMT(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 64; k++ {
		if err := adcp.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
		if err := rmtSw.Install(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	put := func(src int, keys ...uint32) *packet.Packet {
		pairs := make([]packet.KVPair, len(keys))
		for i, k := range keys {
			pairs[i] = packet.KVPair{Key: k, Value: k * 10}
		}
		p := packet.Build(packet.Header{Proto: packet.ProtoKV, SrcPort: uint16(src), CoflowID: 9},
			&packet.KVHeader{Op: packet.KVPut, Pairs: pairs})
		p.IngressPort = src
		return p
	}
	// Eight cached keys of one ADCP partition, so every key hits at home.
	var keys []uint32
	for k := uint32(0); len(keys) < 8; k++ {
		if adcp.PartitionOf(k) == adcp.PartitionOf(0) {
			keys = append(keys, k)
		}
	}
	for _, arch := range []struct {
		name    string
		process func(*packet.Packet) ([]*packet.Packet, error)
	}{{"ADCP", adcp.Process}, {"RMT", rmtSw.Process}} {
		for _, op := range []struct {
			name string
			pkt  *packet.Packet
		}{{"GET", kvGet(2, keys...)}, {"PUT", put(2, keys...)}} {
			t.Run(arch.name+"-"+op.name, func(t *testing.T) {
				run := func() []*packet.Packet {
					out, err := arch.process(op.pkt)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				for i := 0; i < 8; i++ { // warm free lists, pools and maps
					run()
				}
				out := run()
				var d packet.Decoded
				if len(out) != 1 || d.DecodePacket(out[0]) != nil || d.KV.Op != packet.KVHit || len(d.KV.Pairs) != 8 {
					t.Fatalf("reply %v: %+v", out, d.KV)
				}
				for _, pr := range d.KV.Pairs {
					if pr.Value != pr.Key*10 {
						t.Fatalf("key %d value %d", pr.Key, pr.Value)
					}
				}
				if allocs := testing.AllocsPerRun(100, func() { run() }); allocs > 3 {
					t.Fatalf("Process allocates %.1f objects per packet, want <= 3", allocs)
				}
			})
		}
	}
}

// partitionKVReference is PartitionKV as first written: one growing slice
// per partition, then the per-partition runs cut into maxBatch pieces.
func partitionKVReference(pairs []packet.KVPair, partitions, maxBatch int) [][]packet.KVPair {
	part := tm.NewHashPartitioner(partitions)
	byPart := make([][]packet.KVPair, partitions)
	for _, p := range pairs {
		i := part.Place(uint64(p.Key))
		byPart[i] = append(byPart[i], p)
	}
	var out [][]packet.KVPair
	for _, batch := range byPart {
		for len(batch) > maxBatch {
			out = append(out, batch[:maxBatch])
			batch = batch[maxBatch:]
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
	return out
}

// TestPartitionKVMatchesReference checks PartitionKV against the
// per-partition-append reference on random inputs (duplicate keys, empty
// input, one partition, batches of one), and that every batch is capped at
// its length, so appending to one batch never changes another.
func TestPartitionKVMatchesReference(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 500; trial++ {
		n := int(rng.Uint64() % 70)
		partitions := 1 + int(rng.Uint64()%8)
		maxBatch := 1 + int(rng.Uint64()%16)
		keySpace := 1 + rng.Uint64()%200
		pairs := make([]packet.KVPair, n)
		for i := range pairs {
			pairs[i] = packet.KVPair{Key: uint32(rng.Uint64() % keySpace), Value: uint32(i)}
		}
		got := PartitionKV(pairs, partitions, maxBatch)
		want := partitionKVReference(pairs, partitions, maxBatch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d partitions=%d max=%d):\n got %v\nwant %v",
				trial, n, partitions, maxBatch, got, want)
		}
		for i := range got {
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("trial %d: batch %d has len %d cap %d", trial, i, len(got[i]), cap(got[i]))
			}
			_ = append(got[i], packet.KVPair{Key: ^uint32(0), Value: ^uint32(0)})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: appending to batch %d changed another batch", trial, i)
			}
		}
	}
}
