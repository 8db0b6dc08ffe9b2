package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/workload"
)

// kvParams sizes the kv-zipf workload.
type kvParams struct {
	Clients       int     // client hosts, one per switch port
	OpsPerClient  int     // client operations of KeysPerPacket keys each
	KeysPerPacket int     // keys per client operation before partition batching
	KeySpace      int     // keys are drawn from [0, KeySpace)
	CacheEntries  int     // ranks [0, CacheEntries) are cached: the hot set
	Skew          float64 // Zipf exponent of the GET keys
	PutEvery      int     // every PutEvery-th operation is a PUT of cached keys
}

// defaultKV gives about 60 k switch packets per architecture per round.
var defaultKV = kvParams{
	Clients: 8, OpsPerClient: 2000, KeysPerPacket: 8,
	KeySpace: 4096, CacheEntries: 256, Skew: 0.99, PutEvery: 10,
}

// kvReq is one request packet as sent, kept for the reference check.
type kvReq struct {
	port  int
	op    packet.KVOp
	pairs []packet.KVPair
}

// kvBench drives the ADCP and the RMT multi-key caches straight through
// Switch.Process: no netsim, no event engine.
type kvBench struct {
	p    kvParams
	seed uint64

	// Outputs of the last round, for check.
	adcp            *apps.KVCacheADCP
	rmt             *apps.KVCacheRMT
	reqs            []kvReq
	adcpOut         [][]*packet.Packet
	rmtOut          [][]*packet.Packet
	adcpErr, rmtErr []error
}

func newKV(p kvParams, seed uint64) *kvBench { return &kvBench{p: p, seed: seed} }

// kvADCPConfig is the switch of experiments.CacheHit: 8 ports, 4 central
// pipelines, 2 stages sized to the key space.
func kvADCPConfig(p kvParams) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ports = p.Clients
	cfg.DemuxFactor = 1
	cfg.CentralPipelines = 4
	cfg.EgressPipelines = 2
	cfg.Pipe.Stages = 2
	cfg.Pipe.TableEntriesPerStage = p.KeySpace
	return cfg
}

// kvRMTConfig spreads the same ports over 4 RMT pipelines; each stage-0
// memory is replicated KeysPerPacket-fold by apps.NewKVCacheRMT.
func kvRMTConfig(p kvParams) rmt.Config {
	cfg := rmt.DefaultConfig()
	cfg.Ports = p.Clients
	cfg.Pipelines = 4
	cfg.Pipe.Stages = 2
	cfg.Pipe.TableEntriesPerStage = p.KeySpace
	return cfg
}

// initialValue is the value installed for cached key k: seeded and never
// zero, so a miss (the request's zero value echoed back) cannot pass for
// a hit.
func initialValue(seed uint64, k uint32) uint32 {
	x := seed*0x9E3779B97F4A7C15 ^ uint64(k)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return uint32(x) | 1
}

func (b *kvBench) round(tr *tracer) (roundStats, error) {
	var rs roundStats
	p := b.p
	kv := apps.KVConfig{KeysPerPacket: p.KeysPerPacket, CacheEntries: p.CacheEntries}
	m0 := memNow()
	t0 := time.Now()

	var err error
	var buildAlloc [2]float64
	before := memIf(tr)
	tr.begin(spCoreBuild)
	b.adcp, err = apps.NewKVCacheADCP(kvADCPConfig(p), kv)
	tr.end()
	buildAlloc[0] = allocSinceMB(tr, before)
	if err != nil {
		return rs, err
	}
	tr.begin(spKVInstall)
	for k := uint32(0); int(k) < p.CacheEntries; k++ {
		if err = b.adcp.Install(k, initialValue(b.seed, k)); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return rs, fmt.Errorf("adcp install: %w", err)
	}
	before = memIf(tr)
	tr.begin(spRMTBuild)
	b.rmt, err = apps.NewKVCacheRMT(kvRMTConfig(p), kv)
	tr.end()
	buildAlloc[1] = allocSinceMB(tr, before)
	if err != nil {
		return rs, err
	}
	tr.begin(spKVInstall)
	for k := uint32(0); int(k) < p.CacheEntries; k++ {
		if err = b.rmt.Install(k, initialValue(b.seed, k)); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return rs, fmt.Errorf("rmt install: %w", err)
	}

	tr.begin(spGen)
	var adcpPkts, rmtPkts []*packet.Packet
	b.reqs, adcpPkts, rmtPkts, err = kvInputs(p, b.seed)
	tr.end()
	if err != nil {
		return rs, err
	}
	t1 := time.Now()
	b.adcpOut, b.adcpErr = make([][]*packet.Packet, len(adcpPkts)), make([]error, len(adcpPkts))
	b.rmtOut, b.rmtErr = make([][]*packet.Packet, len(rmtPkts)), make([]error, len(rmtPkts))
	m1 := memNow()

	t2 := time.Now()
	processAll(tr, spCoreProc, b.adcp.Process, adcpPkts, b.adcpOut, b.adcpErr)
	processAll(tr, spRMTProc, b.rmt.Process, rmtPkts, b.rmtOut, b.rmtErr)
	t3 := time.Now()
	m2 := memNow()

	rs.setup = t1.Sub(t0)
	rs.sim = t3.Sub(t2)
	rs.wall = rs.setup + rs.sim
	rs.pkts = uint64(len(adcpPkts) + len(rmtPkts))
	rs.mallocs = m2.Mallocs - m1.Mallocs
	rs.allocB = m2.TotalAlloc - m0.TotalAlloc
	if tr != nil {
		rs.layer = switchLayers(b.adcp.Switch, b.rmt.Switch, len(adcpPkts), len(rmtPkts))
		rs.layer["core.build_alloc_mb"] = buildAlloc[0]
		rs.layer["rmt.build_alloc_mb"] = buildAlloc[1]
		if h, m := b.adcp.Hits(), b.adcp.Misses(); h+m > 0 {
			rs.layer["kv.hit_ratio"] = float64(h) / float64(h+m)
		}
	}
	return rs, nil
}

// processAll sends every packet through one switch, keeping each call's
// outputs and error for the check.
func processAll(tr *tracer, span spanID, process func(*packet.Packet) ([]*packet.Packet, error),
	pkts []*packet.Packet, outs [][]*packet.Packet, errs []error) {
	for i, pkt := range pkts {
		tr.begin(span)
		outs[i], errs[i] = process(pkt)
		tr.end()
	}
}

// kvInputs generates one round of requests from the seed: Zipf GETs from
// workload.KVZipf, every PutEvery-th operation replaced by a PUT of
// cached keys with fresh values, each operation split into
// partition-aligned batches as experiments.CacheHit does. It returns the
// requests and one packet copy per architecture (Process rewrites packets
// in place).
func kvInputs(p kvParams, seed uint64) ([]kvReq, []*packet.Packet, []*packet.Packet, error) {
	injs, err := workload.KVZipf(workload.KVParams{
		CoflowID: 1, Clients: p.Clients, OpsPerClient: p.OpsPerClient,
		KeysPerPacket: p.KeysPerPacket, KeySpace: uint32(p.KeySpace), Seed: seed,
	}, p.Skew)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	central := kvADCPConfig(p).CentralPipelines
	var reqs []kvReq
	var adcpPkts, rmtPkts []*packet.Packet
	var d packet.Decoded
	for i, inj := range injs {
		if err := d.DecodePacket(inj.Pkt); err != nil {
			return nil, nil, nil, err
		}
		op, pairs := packet.KVGet, d.KV.Pairs
		if i%p.PutEvery == p.PutEvery-1 {
			op = packet.KVPut
			pairs = make([]packet.KVPair, p.KeysPerPacket)
			for j := range pairs {
				pairs[j] = packet.KVPair{Key: uint32(rng.Intn(p.CacheEntries)), Value: rng.Uint32() | 1}
			}
		}
		for _, batch := range apps.PartitionKV(pairs, central, p.KeysPerPacket) {
			batch = append([]packet.KVPair(nil), batch...)
			hdr := packet.Header{Proto: packet.ProtoKV, SrcPort: d.Base.SrcPort, CoflowID: 1}
			for _, dst := range []*[]*packet.Packet{&adcpPkts, &rmtPkts} {
				pkt := packet.Build(hdr, &packet.KVHeader{Op: op, Pairs: batch})
				pkt.IngressPort = inj.Src
				*dst = append(*dst, pkt)
			}
			reqs = append(reqs, kvReq{port: inj.Src, op: op, pairs: batch})
		}
	}
	return reqs, adcpPkts, rmtPkts, nil
}

func (b *kvBench) check(rs *roundStats) string {
	first := ""
	note := func(msg string) {
		rs.failed++
		if first == "" {
			first = msg
		}
	}
	// ADCP: one cache, each key owned by one partition.
	ref := map[uint32]uint32{}
	for k := uint32(0); int(k) < b.p.CacheEntries; k++ {
		ref[k] = initialValue(b.seed, k)
	}
	var getKeys, hits uint64
	for i, q := range b.reqs {
		rs.units++
		if msg := checkKVReply(q, b.adcpOut[i], b.adcpErr[i], ref); msg != "" {
			note("adcp: " + msg)
		}
		if q.op == packet.KVGet {
			for _, pr := range q.pairs {
				getKeys++
				if _, ok := ref[pr.Key]; ok {
					hits++
				}
			}
		}
	}
	rs.units++
	if h, m := b.adcp.Hits(), b.adcp.Misses(); h+m != getKeys || h != hits {
		note(fmt.Sprintf("adcp: switch counted %d hits + %d misses, sent %d GET keys of which %d cached", h, m, getKeys, hits))
	}
	// RMT: every ingress pipeline holds its own copy, so a PUT updates only
	// the pipeline of the port it arrived on.
	refs := make([]map[uint32]uint32, b.rmt.Config().Pipelines)
	for pl := range refs {
		refs[pl] = map[uint32]uint32{}
		for k := uint32(0); int(k) < b.p.CacheEntries; k++ {
			refs[pl][k] = initialValue(b.seed, k)
		}
	}
	for i, q := range b.reqs {
		rs.units++
		if msg := checkKVReply(q, b.rmtOut[i], b.rmtErr[i], refs[b.rmt.PipelineOfPort(q.port)]); msg != "" {
			note("rmt: " + msg)
		}
	}
	return first
}

// checkKVReply checks one reply against the reference cache ref and, for a
// PUT, applies the PUT to ref. A GET reply must carry every requested key
// in order, each cached key with its reference value and each other key
// with the request's zero value; its op is KVHit exactly when every key
// was cached.
func checkKVReply(q kvReq, outs []*packet.Packet, err error, ref map[uint32]uint32) string {
	if err != nil {
		return err.Error()
	}
	if len(outs) != 1 {
		return fmt.Sprintf("%d replies to one request", len(outs))
	}
	if outs[0].EgressPort != q.port {
		return fmt.Sprintf("reply on port %d, request from %d", outs[0].EgressPort, q.port)
	}
	var d packet.Decoded
	if err := d.DecodePacket(outs[0]); err != nil {
		return err.Error()
	}
	if d.Base.Proto != packet.ProtoKV || len(d.KV.Pairs) != len(q.pairs) {
		return fmt.Sprintf("reply has %d pairs, request %d", len(d.KV.Pairs), len(q.pairs))
	}
	if q.op == packet.KVPut {
		if d.KV.Op != packet.KVHit {
			return fmt.Sprintf("PUT reply op %d", d.KV.Op)
		}
		for _, pr := range q.pairs {
			ref[pr.Key] = pr.Value
		}
		return ""
	}
	allHit := true
	for j, pr := range d.KV.Pairs {
		if pr.Key != q.pairs[j].Key {
			return fmt.Sprintf("reply pair %d key %d, requested %d", j, pr.Key, q.pairs[j].Key)
		}
		want, cached := ref[pr.Key]
		if !cached {
			allHit = false
			want = 0
		}
		if pr.Value != want {
			return fmt.Sprintf("key %d value %d, want %d", pr.Key, pr.Value, want)
		}
	}
	if (d.KV.Op == packet.KVHit) != allHit {
		return fmt.Sprintf("reply op %d, all keys cached %v", d.KV.Op, allHit)
	}
	return ""
}
