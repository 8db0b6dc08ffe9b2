package packet

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestBoundParserMatchesRun is the differential oracle for the bound
// parser: on valid packets of every protocol, every truncation of them,
// byte-level corruptions and random bytes, BoundParser.Run must agree
// with ParseGraph.Run on the error, the parse cost, and (for names the
// consumer maps) every extracted field and array. It binds twice: with
// every name mapped, and with none (all scalars dropped, arrays kept as
// bounds checks only), so selectors and array counts are exercised both
// as stored fields and as fields read only to steer the parse.
func TestBoundParserMatchesRun(t *testing.T) {
	g := StandardGraph()
	scalars, arrays := map[string]int{}, map[string]int{}
	for _, s := range g.states {
		for _, f := range s.Extracts {
			if _, ok := scalars[f.Name]; !ok {
				scalars[f.Name] = len(scalars) + len(arrays)
			}
		}
		for _, a := range s.Arrays {
			if _, ok := arrays[a.Name]; !ok {
				arrays[a.Name] = len(scalars) + len(arrays)
			}
		}
	}
	slotName := map[int]string{}
	for n, s := range scalars {
		slotName[s] = n
	}
	for n, s := range arrays {
		slotName[s] = n
	}
	all, err := g.Bind(func(name string, array bool) int {
		m := scalars
		if array {
			m = arrays
		}
		if s, ok := m[name]; ok {
			return s
		}
		return -1
	})
	if err != nil {
		t.Fatal(err)
	}
	none, err := g.Bind(func(string, bool) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}

	var flat FlatResult
	check := func(data []byte) {
		t.Helper()
		want, wantErr := g.Run(data, 0)
		for _, b := range []*BoundParser{all, none} {
			gotErr := b.Run(data, 0, &flat)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("data %x: bound err %v, map err %v", data, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if flat.StatesVisited != want.StatesVisited || flat.BytesConsumed != want.BytesConsumed {
				t.Fatalf("data %x: bound cost %d states/%d bytes, map %d/%d", data,
					flat.StatesVisited, flat.BytesConsumed, want.StatesVisited, want.BytesConsumed)
			}
			if b == none {
				if len(flat.Fields) != 0 || len(flat.Arrays) != 0 {
					t.Fatalf("data %x: unmapped bind stored %d fields, %d arrays", data, len(flat.Fields), len(flat.Arrays))
				}
				continue
			}
			fields := map[string]uint64{}
			for _, f := range flat.Fields {
				fields[slotName[f.Slot]] = f.Val
			}
			if !reflect.DeepEqual(fields, want.Fields) {
				t.Fatalf("data %x: bound fields %v, map %v", data, fields, want.Fields)
			}
			got := map[string][]uint32{}
			for _, a := range flat.Arrays {
				got[slotName[a.Slot]] = append([]uint32{}, a.Vals...)
			}
			wantArrays := map[string][]uint32{}
			for n, v := range want.Arrays {
				wantArrays[n] = append([]uint32{}, v...)
			}
			if !reflect.DeepEqual(got, wantArrays) {
				t.Fatalf("data %x: bound arrays %v, map %v", data, got, wantArrays)
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
