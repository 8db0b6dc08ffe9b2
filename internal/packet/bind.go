package packet

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements the bound (pre-resolved) form of the parse graph.
// ParseGraph.Run builds name-keyed maps per packet; it stays as the
// reference the bound form is tested against. Binding resolves every
// state reference, branch target, selector and array count to integer
// indexes once, so the per-packet walk touches only flat slices and
// allocates nothing. The walk keeps exactly the checks and the cost of
// ParseGraph.Run: each state's header length, each array's last element
// within the packet, selector branching and the state limit. It stores no
// field values; consumers read the packet's headers from Decoded.

// boundField locates a scalar within a state's header.
type boundField struct {
	off   int
	width int // 1, 2 or 4 (Validate guarantees it)
}

func (f boundField) read(data []byte) uint64 {
	switch f.width {
	case 1:
		return uint64(data[f.off])
	case 2:
		return uint64(binary.BigEndian.Uint16(data[f.off:]))
	default:
		return uint64(binary.BigEndian.Uint32(data[f.off:]))
	}
}

type boundArray struct {
	count    boundField // the count field's last extract in the state
	base     int
	stride   int
	elemOff  int
	maxCount int
}

type boundBranch struct {
	val  uint64
	next int
}

type boundState struct {
	hdrLen   int
	arrays   []boundArray
	sel      boundField // width 0 = no selector
	branches []boundBranch
	def      int // next state index; -1 = accept
}

// BoundParser is a validated ParseGraph resolved to indexes (see
// ParseGraph.Bind). It is immutable and keeps no per-run state, so one
// BoundParser serves any number of pipelines at once.
type BoundParser struct {
	states []boundState
	start  int
}

// Bind validates the graph and resolves it for walking.
func (g *ParseGraph) Bind() (*BoundParser, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(g.states))
	for name := range g.states {
		names = append(names, name)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	resolve := func(name string) int {
		if name == "" {
			return -1
		}
		return index[name]
	}
	b := &BoundParser{start: index[g.start]}
	for _, name := range names {
		s := g.states[name]
		// Last extract of each name wins, exactly like the map the
		// unbound parser fills; selectors and counts read that copy.
		last := make(map[string]boundField, len(s.Extracts))
		for _, f := range s.Extracts {
			last[f.Name] = boundField{off: f.Offset, width: f.Width}
		}
		bs := boundState{hdrLen: s.HdrLen, def: resolve(s.Default)}
		if s.Select != "" {
			bs.sel = last[s.Select]
			vals := make([]uint64, 0, len(s.Next))
			for v := range s.Next {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, v := range vals {
				bs.branches = append(bs.branches, boundBranch{val: v, next: resolve(s.Next[v])})
			}
		}
		for _, a := range s.Arrays {
			maxN := a.MaxCount
			if maxN <= 0 {
				maxN = 16
			}
			bs.arrays = append(bs.arrays, boundArray{
				count:    last[a.CountField],
				base:     a.BaseOffset,
				stride:   a.Stride,
				elemOff:  a.ElemOffset,
				maxCount: maxN,
			})
		}
		b.states = append(b.states, bs)
	}
	return b, nil
}

// Run walks data through the graph and returns the parse cost: states
// visited and header bytes consumed. maxStates bounds traversal (loop
// protection); 0 means 64. Errors and costs are exactly those of
// ParseGraph.Run on the same graph.
func (b *BoundParser) Run(data []byte, maxStates int) (states, bytes int, err error) {
	if maxStates <= 0 {
		maxStates = 64
	}
	cur := b.start
	for cur >= 0 {
		if states >= maxStates {
			return states, bytes, fmt.Errorf("packet: parse exceeded %d states (cycle?)", maxStates)
		}
		s := &b.states[cur]
		if len(data) < s.hdrLen {
			return states, bytes, ErrTruncated
		}
		body := data[s.hdrLen:]
		for i := range s.arrays {
			a := &s.arrays[i]
			n := int(a.count.read(data))
			if n > a.maxCount {
				n = a.maxCount
			}
			// Element offsets grow monotonically, so the last element's
			// bound implies all earlier ones.
			if n > 0 && a.base+(n-1)*a.stride+a.elemOff+4 > len(body) {
				return states, bytes, ErrTruncated
			}
		}
		next := s.def
		if s.sel.width != 0 {
			v := s.sel.read(data)
			for i := range s.branches {
				if s.branches[i].val == v {
					next = s.branches[i].next
					break
				}
			}
		}
		data = body
		bytes += s.hdrLen
		states++
		cur = next
	}
	return states, bytes, nil
}
