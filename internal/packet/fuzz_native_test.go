package packet

import (
	"bytes"
	"testing"
)

// Native fuzz targets (run as tests over the seed corpus; extendable with
// `go test -fuzz=FuzzDecoded ./internal/packet/`).

func fuzzSeeds() [][]byte {
	return [][]byte{
		Build(Header{Proto: ProtoML}, &MLHeader{Base: 1, Values: []uint32{1, 2, 3}}).Data,
		Build(Header{Proto: ProtoKV}, &KVHeader{Op: KVPut, Pairs: []KVPair{{1, 2}}}).Data,
		Build(Header{Proto: ProtoDB}, &DBHeader{Query: 3, Tuples: []DBTuple{{4, 5}}}).Data,
		Build(Header{Proto: ProtoGraph}, &GraphHeader{Round: 1, Edges: []Edge{{6, 7}}}).Data,
		Build(Header{Proto: ProtoGroup}, &GroupHeader{GroupID: 8, Payload: []byte("x")}).Data,
		BuildRaw(Header{}, 32).Data,
		{},
		{0xFF},
	}
}

func FuzzDecoded(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoded
		if err := d.Decode(data); err != nil {
			return
		}
		// A successful decode must re-encode to something that decodes to
		// the same base header (round-trip stability on accepted inputs).
		re := d.Reencode()
		var d2 Decoded
		if err := d2.Decode(re.Data); err != nil {
			t.Fatalf("reencode of accepted packet rejected: %v", err)
		}
		if d2.Base.Proto != d.Base.Proto || d2.Base.CoflowID != d.Base.CoflowID {
			t.Fatalf("reencode changed the base header: %+v vs %+v", d2.Base, d.Base)
		}
	})
}

// FuzzParseGraph checks the bound walker the switches use against the
// map-based reference parser on every input: same error, same states
// visited, same bytes consumed.
func FuzzParseGraph(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	g := StandardGraph()
	b, err := g.Bind()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		states, bytes, err := b.Run(data, 0)
		res, refErr := g.Run(data, 0)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("walker err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if states != res.StatesVisited || bytes != res.BytesConsumed {
			t.Fatalf("walker cost %d states/%d bytes, reference %d/%d",
				states, bytes, res.StatesVisited, res.BytesConsumed)
		}
		if bytes > len(data) {
			t.Fatalf("parser consumed %d of %d bytes", bytes, len(data))
		}
		for name, vals := range res.Arrays {
			if len(vals) > 16 {
				t.Fatalf("array %s longer than one width: %d", name, len(vals))
			}
		}
	})
}

func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint8(3), uint8(4), uint32(5), uint32(6), uint32(7))
	f.Fuzz(func(t *testing.T, dst, src uint16, proto, flags uint8, cf, fl, seq uint32) {
		h := Header{DstPort: dst, SrcPort: src, Proto: Proto(proto), Flags: flags, CoflowID: cf, FlowID: fl, Seq: seq}
		enc := h.Encode(nil)
		var g Header
		rest, err := g.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || g != h {
			t.Fatalf("round trip: %+v vs %+v", g, h)
		}
		if !bytes.Equal(enc, g.Encode(nil)) {
			t.Fatal("re-encode differs")
		}
	})
}
