package packet

import (
	"math/rand"
	"testing"
)

// TestBoundParserMatchesRun is the differential oracle for the bound
// parser: on valid packets of every protocol, every truncation of them,
// byte-level corruptions and random bytes, BoundParser.Run must agree
// with the map-based reference ParseGraph.Run on the error, the states
// visited and the bytes consumed. A second, looping graph with repeated
// selector extracts, offset arrays and a small state limit exercises the
// loop guard and the "last extract wins" rule the standard graph does
// not reach.
func TestBoundParserMatchesRun(t *testing.T) {
	loop := NewParseGraph("a").
		Add(&ParseState{
			Name: "a", HdrLen: 2,
			Extracts: []FieldRef{{Name: "sel", Offset: 0, Width: 1}, {Name: "sel", Offset: 1, Width: 1}},
			Select:   "sel",
			Next:     map[uint64]string{1: "a", 2: "b"},
		}).
		Add(&ParseState{
			Name: "b", HdrLen: 3,
			Extracts: []FieldRef{{Name: "n", Offset: 2, Width: 1}},
			Arrays:   []ArrayRef{{Name: "vals", CountField: "n", BaseOffset: 1, Stride: 6, ElemOffset: 2, MaxCount: 3}},
			Default:  "a",
		})
	graphs := []struct {
		g         *ParseGraph
		b         *BoundParser
		maxStates int
	}{{g: StandardGraph()}, {g: loop}, {g: loop, maxStates: 5}}
	for i := range graphs {
		b, err := graphs[i].g.Bind()
		if err != nil {
			t.Fatal(err)
		}
		graphs[i].b = b
	}
	check := func(data []byte) {
		t.Helper()
		for _, gc := range graphs {
			want, wantErr := gc.g.Run(data, gc.maxStates)
			states, bytes, gotErr := gc.b.Run(data, gc.maxStates)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("data %x: bound err %v, map err %v", data, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if states != want.StatesVisited || bytes != want.BytesConsumed {
				t.Fatalf("data %x: bound cost %d states/%d bytes, map %d/%d", data,
					states, bytes, want.StatesVisited, want.BytesConsumed)
			}
		}
	}

	seeds := []*Packet{
		BuildRaw(Header{DstPort: 3, CoflowID: 7}, 12),
		Build(Header{Proto: ProtoML, CoflowID: 1}, &MLHeader{Base: 4, Values: []uint32{1, 2, 3}}),
		Build(Header{Proto: ProtoKV, CoflowID: 2}, &KVHeader{Op: KVGet, Pairs: []KVPair{{1, 2}, {3, 4}}}),
		Build(Header{Proto: ProtoDB, CoflowID: 3}, &DBHeader{Query: 1, Tuples: []DBTuple{{5, 6}}}),
		Build(Header{Proto: ProtoGraph, CoflowID: 4}, &GraphHeader{Round: 1, Edges: []Edge{{7, 8}}}),
		Build(Header{Proto: ProtoGroup, CoflowID: 5}, &GroupHeader{GroupID: 9, Payload: []byte("xyz")}),
		// Wider than the 16-element array cap.
		Build(Header{Proto: ProtoML, CoflowID: 6}, &MLHeader{Base: 1, Values: make([]uint32, 17)}),
		Build(Header{Proto: ProtoKV, CoflowID: 7}, &KVHeader{Op: KVPut, Pairs: make([]KVPair, 18)}),
		// Shaped for the looping graph: a → a → b (two elements) → a → b
		// (five elements, capped at three) → a → accept: six states.
		{Data: append([]byte{0, 1, 0, 2, 9, 9, 2, 0, 2, 9, 9, 5, 0, 0}, make([]byte, 20)...)},
	}
	for _, seed := range seeds {
		for n := 0; n <= len(seed.Data); n++ {
			check(seed.Data[:n])
		}
		for pos := 0; pos < len(seed.Data); pos++ {
			for _, val := range []byte{0x00, 0x01, 0x03, 0xFF, 0x80} {
				mut := append([]byte(nil), seed.Data...)
				mut[pos] = val
				check(mut)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		if len(data) > 5 && rng.Intn(2) == 0 {
			data[4] = byte(1 + rng.Intn(5)) // steer toward a known protocol
		}
		check(data)
	}
}
