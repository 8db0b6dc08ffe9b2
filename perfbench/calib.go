package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by 20–40 %
// over seconds to minutes as other tenants load it, and that drift moves
// every host-time figure with it. So before each round the benchmark times
// a fixed calibration kernel, and reports times scaled to the speed at
// which the kernel takes calibRef:
//
//	reported = measured × calibRef / kernel time
//
// The kernel is benchmark code that no change to the simulator touches,
// so a faster simulator still shows as a smaller scaled time. It mixes
// small-object allocation, map inserts and lookups, and pointer chasing,
// the work the simulator itself does, because a kernel of plain arithmetic
// or of cache misses alone tracked the drift less well.
const calibRef = 4 * time.Millisecond

// calibRepeats is how many kernel runs one calibration takes the median of.
const calibRepeats = 3

type calibNode struct {
	key  uint64
	next *calibNode
	vals []uint32
}

var calibSink uint64

// calibKernel runs the calibration kernel once and returns its host time.
func calibKernel() time.Duration {
	start := time.Now()
	m := make(map[uint64]*calibNode)
	x := uint64(3)
	var head *calibNode
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		head = &calibNode{key: x, next: head, vals: make([]uint32, 4)}
		m[x%8192] = head
	}
	var s uint64
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if n, ok := m[x%8192]; ok {
			s += n.key
			n.vals[0]++
		}
	}
	calibSink += s
	return time.Since(start)
}

// hostSpeed collects garbage, so each round starts from a collected heap
// and the kernel never runs beside a collection, then returns calibRef
// over the median kernel time: above 1 when the host is faster than the
// reference, below 1 when it is slower.
func hostSpeed() float64 {
	runtime.GC()
	ts := make([]time.Duration, calibRepeats)
	for i := range ts {
		ts[i] = calibKernel()
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return calibRef.Seconds() / ts[calibRepeats/2].Seconds()
}
