package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// buildCase is one application header to build, with the base header's
// protocol. A nil body is a ProtoRaw packet with an empty payload.
type buildCase struct {
	name string
	h    Header
	body Body
}

func buildCases() []buildCase {
	var cases []buildCase
	for _, n := range []int{0, 1, 7, 16, 300} {
		vals := make([]uint32, n)
		pairs := make([]KVPair, n)
		tuples := make([]DBTuple, n)
		edges := make([]Edge, n)
		payload := make([]byte, n)
		for i := 0; i < n; i++ {
			x := uint32(i)*0x9E3779B1 + 1
			vals[i] = x
			pairs[i] = KVPair{Key: x, Value: ^x}
			tuples[i] = DBTuple{Key: x >> 3, Measure: x}
			edges[i] = Edge{Src: x, Dst: x ^ 0xFFFF}
			payload[i] = byte(x)
		}
		cases = append(cases,
			buildCase{fmt.Sprintf("ML/%d", n), sampleHeader(ProtoML), &MLHeader{Base: 64, Worker: 3, Values: vals}},
			buildCase{fmt.Sprintf("KV/%d", n), sampleHeader(ProtoKV), &KVHeader{Op: KVPut, Pairs: pairs}},
			buildCase{fmt.Sprintf("DB/%d", n), sampleHeader(ProtoDB), &DBHeader{Query: 4, Stage: 1, Tuples: tuples}},
			buildCase{fmt.Sprintf("Graph/%d", n), sampleHeader(ProtoGraph), &GraphHeader{Round: 2, Edges: edges}},
			buildCase{fmt.Sprintf("Group/%d", n), sampleHeader(ProtoGroup), &GroupHeader{GroupID: 5, Chunk: 1, Total: 9, Payload: payload}},
		)
	}
	return append(cases, buildCase{"Raw/nil", sampleHeader(ProtoRaw), nil})
}

// TestBuildMatchesReferenceEncoding: for every protocol, element count
// (including empty lists) and a nil body, Build's bytes equal the header
// and body encoded separately and concatenated, Length is the body's
// EncodedLen, the buffer is exactly sized, and Decode → Reencode gives the
// same bytes back.
func TestBuildMatchesReferenceEncoding(t *testing.T) {
	for _, tc := range buildCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.h
			var body []byte
			if tc.body != nil {
				body = tc.body.Encode(nil)
				if len(body) != tc.body.EncodedLen() {
					t.Fatalf("Encode wrote %d bytes, EncodedLen says %d", len(body), tc.body.EncodedLen())
				}
			}
			ref.Length = uint16(len(body))
			want := append(ref.Encode(nil), body...)

			p := Build(tc.h, tc.body)
			if !bytes.Equal(p.Data, want) {
				t.Fatalf("Build bytes\n got %x\nwant %x", p.Data, want)
			}
			if cap(p.Data) != len(p.Data) {
				t.Errorf("buffer len %d cap %d, want exactly sized", len(p.Data), cap(p.Data))
			}
			if p.EgressPort != -1 || p.IngressPort != 0 || p.Recirculations != 0 {
				t.Errorf("metadata %+v", *p)
			}
			var d Decoded
			if err := d.DecodePacket(p); err != nil {
				t.Fatal(err)
			}
			if int(d.Base.Length) != len(body) {
				t.Errorf("Length %d, want %d", d.Base.Length, len(body))
			}
			q := d.Reencode()
			if !bytes.Equal(q.Data, want) {
				t.Fatalf("Reencode bytes\n got %x\nwant %x", q.Data, want)
			}
			if cap(q.Data) != len(q.Data) || q.EgressPort != -1 {
				t.Errorf("Reencode buffer len %d cap %d, egress %d", len(q.Data), cap(q.Data), q.EgressPort)
			}
		})
	}
}

// TestBuildRawMatchesReference: BuildRaw forces ProtoRaw, zero-fills the
// payload, and round-trips through the raw branch of Reencode.
func TestBuildRawMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1500} {
		h := sampleHeader(ProtoML)
		p := BuildRaw(h, n)
		h.Proto, h.Length = ProtoRaw, uint16(n)
		want := append(h.Encode(nil), make([]byte, n)...)
		if !bytes.Equal(p.Data, want) || cap(p.Data) != len(p.Data) {
			t.Fatalf("n=%d: BuildRaw len %d cap %d, bytes equal %v", n, len(p.Data), cap(p.Data), bytes.Equal(p.Data, want))
		}
		var d Decoded
		if err := d.DecodePacket(p); err != nil {
			t.Fatal(err)
		}
		if q := d.Reencode(); !bytes.Equal(q.Data, want) {
			t.Fatalf("n=%d: Reencode bytes differ", n)
		}
	}
}

// TestBuildAllocs pins the single-buffer build: building or re-encoding
// any packet costs exactly two heap objects, the Packet and its bytes.
func TestBuildAllocs(t *testing.T) {
	for _, tc := range buildCases() {
		var d Decoded
		if err := d.DecodePacket(Build(tc.h, tc.body)); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() { Build(tc.h, tc.body) }); got != 2 {
			t.Errorf("%s: Build allocates %.1f objects, want 2", tc.name, got)
		}
		if got := testing.AllocsPerRun(50, func() { d.Reencode() }); got != 2 {
			t.Errorf("%s: Reencode allocates %.1f objects, want 2", tc.name, got)
		}
	}
}
