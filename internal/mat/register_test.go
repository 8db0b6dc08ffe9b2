package mat

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// denseRegs is the reference register file: every cell stored from the
// start, ops applied by their definitions.
type denseRegs struct {
	cells []uint64
	ops   uint64
}

func (d *denseRegs) execute(op RegisterOp, idx int, arg uint64) uint64 {
	d.ops++
	c := &d.cells[idx]
	switch op {
	case RegRead:
		return *c
	case RegWrite:
		old := *c
		*c = arg
		return old
	case RegAdd:
		*c += arg
		return *c
	case RegMax:
		*c = max(*c, arg)
		return *c
	case RegMin:
		*c = min(*c, arg)
		return *c
	default: // RegCAS
		old := *c
		if old == 0 {
			*c = arg
		}
		return old
	}
}

// TestRegisterFileLazyMatchesDense drives a lazily allocated register file
// and the dense reference through the same random mix of all six ops,
// Peek, Snapshot, NonZero, Restore and Reset, and demands identical
// results, op counts and contents after every step.
func TestRegisterFileLazyMatchesDense(t *testing.T) {
	for _, size := range []int{1, 7, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(size)))
			f := NewRegisterFile(size)
			ref := &denseRegs{cells: make([]uint64, size)}
			arg := func() uint64 {
				if rng.Intn(3) == 0 {
					return 0 // zero args must not confuse the lazy path
				}
				return uint64(rng.Intn(50))
			}
			for step := 0; step < 300; step++ {
				idx := rng.Intn(size)
				switch k := rng.Intn(10); {
				case k < 6:
					op, a := RegisterOp(k), arg()
					if got, want := f.Execute(op, idx, a), ref.execute(op, idx, a); got != want {
						t.Fatalf("size %d seed %d step %d: %v(%d, %d) = %d, want %d", size, seed, step, op, idx, a, got, want)
					}
				case k == 6:
					if got, want := f.Peek(idx), ref.cells[idx]; got != want {
						t.Fatalf("size %d seed %d step %d: Peek(%d) = %d, want %d", size, seed, step, idx, got, want)
					}
				case k == 7:
					// Restore a random sparse image, sometimes the empty one.
					var img []RegCell
					dense := make([]uint64, size)
					for i := range dense {
						if rng.Intn(4) == 0 {
							dense[i] = arg()
							img = append(img, RegCell{Idx: uint32(i), Val: dense[i]})
						}
					}
					ops := uint64(rng.Intn(1000))
					if err := f.Restore(img, ops); err != nil {
						t.Fatal(err)
					}
					ref.cells, ref.ops = dense, ops
				case k == 8:
					f.Reset()
					clear(ref.cells)
				default:
					img := f.NonZero()
					f2 := NewRegisterFile(size)
					if err := f2.Restore(img, f.Ops()); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(f2.Snapshot(), ref.cells) {
						t.Fatalf("size %d seed %d step %d: NonZero image does not restore the contents", size, seed, step)
					}
				}
				if f.Ops() != ref.ops {
					t.Fatalf("size %d seed %d step %d: Ops = %d, want %d", size, seed, step, f.Ops(), ref.ops)
				}
				if got := f.Snapshot(); !reflect.DeepEqual(got, ref.cells) {
					t.Fatalf("size %d seed %d step %d: Snapshot = %v, want %v", size, seed, step, got, ref.cells)
				}
			}
		}
	}
}

// TestRegisterFileUntouchedAllocatesNothing: reads, snapshots, resets and
// an all-zero restore of an untouched file see zeros and never allocate
// its cells; the first write does.
func TestRegisterFileUntouchedAllocatesNothing(t *testing.T) {
	f := NewRegisterFile(4096)
	allocs := testing.AllocsPerRun(100, func() {
		_ = f.Peek(4095)
		_ = f.Execute(RegRead, 17, 0)
		f.Reset()
		_ = f.NonZero()
		if err := f.Restore(nil, 3); err != nil {
			t.Fatal(err)
		}
		if err := f.Restore([]RegCell{{Idx: 2, Val: 0}}, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untouched file allocated %.1f objects per round", allocs)
	}
	if snap := f.Snapshot(); len(snap) != 4096 || snap[9] != 0 {
		t.Errorf("Snapshot of untouched file: len %d", len(snap))
	}
	if f.cells != nil {
		t.Fatal("cells allocated without a write")
	}
	if f.Ops() != 3 {
		t.Errorf("Ops = %d, want 3 from the restore", f.Ops())
	}
	f.Execute(RegAdd, 5, 2)
	if f.cells == nil || f.Peek(5) != 2 {
		t.Fatal("first write did not allocate and store")
	}
}

// TestRegisterFileIndexPanics: out-of-range indexes panic whether or not
// the cells are allocated, as indexing a dense file would.
func TestRegisterFileIndexPanics(t *testing.T) {
	for _, touched := range []bool{false, true} {
		f := NewRegisterFile(8)
		if touched {
			f.Execute(RegWrite, 0, 1)
		}
		for _, idx := range []int{-1, 8, 1 << 20} {
			mustPanicMat(t, func() { f.Peek(idx) })
			for op := RegRead; op <= RegCAS; op++ {
				mustPanicMat(t, func() { f.Execute(op, idx, 1) })
			}
		}
		if !touched && f.cells != nil {
			t.Error("out-of-range write allocated the cells")
		}
	}
}

// TestRegisterFileRestoreRejectsBadImages: a sparse image must list
// in-range cells in strictly ascending order; a rejected image leaves the
// file untouched.
func TestRegisterFileRestoreRejectsBadImages(t *testing.T) {
	bad := [][]RegCell{
		{{Idx: 8, Val: 1}},
		{{Idx: 3, Val: 1}, {Idx: 2, Val: 1}},
		{{Idx: 3, Val: 1}, {Idx: 3, Val: 2}},
	}
	for _, img := range bad {
		f := NewRegisterFile(8)
		f.Execute(RegWrite, 1, 9)
		if err := f.Restore(img, 0); err == nil {
			t.Errorf("Restore(%v) accepted", img)
		}
		if f.Peek(1) != 9 || f.Ops() != 1 {
			t.Errorf("rejected Restore(%v) changed the file", img)
		}
	}
}

// TestExactTableFullAtCapacityWithoutPresize: capacity is an accounting
// limit — a fresh table holds no map at all, and ErrTableFull arrives at
// exactly Capacity() distinct keys however large the capacity is.
func TestExactTableFullAtCapacityWithoutPresize(t *testing.T) {
	for _, capacity := range []int{0, 1, 1023, 1024, 1025, 5000} {
		tb := NewExactTable(capacity)
		if tb.m != nil {
			t.Fatalf("cap %d: fresh table pre-sized its map", capacity)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			tb.Lookup(7)
			tb.Delete(7)
			_ = tb.Len()
		}); allocs != 0 {
			t.Errorf("cap %d: reads of an empty table allocated %.1f", capacity, allocs)
		}
		for k := 0; k < capacity; k++ {
			if err := tb.Insert(uint64(k)*7919, Result{ActionID: k}); err != nil {
				t.Fatalf("cap %d: insert %d: %v", capacity, k, err)
			}
		}
		if tb.Len() != tb.Capacity() {
			t.Fatalf("cap %d: Len %d", capacity, tb.Len())
		}
		if err := tb.Insert(1<<40, Result{}); !errors.Is(err, ErrTableFull) {
			t.Errorf("cap %d: insert past capacity err = %v, want ErrTableFull", capacity, err)
		}
		if capacity > 0 {
			if err := tb.Insert(0, Result{ActionID: -1}); err != nil {
				t.Errorf("cap %d: replace at capacity: %v", capacity, err)
			}
		}
	}
}
