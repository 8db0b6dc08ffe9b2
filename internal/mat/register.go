package mat

import "fmt"

// RegisterOp is a read-modify-write operation on a register cell. These are
// the stateful-ALU primitives that make "stateful processing" (paper §1)
// possible: each packet may atomically read and update one cell per
// register file per stage.
type RegisterOp int

// Register operations.
const (
	RegRead  RegisterOp = iota // result = cell
	RegWrite                   // cell = arg; result = old value
	RegAdd                     // cell += arg; result = new value
	RegMax                     // cell = max(cell, arg); result = new value
	RegMin                     // cell = min(cell, arg); result = new value
	RegCAS                     // if cell == 0 { cell = arg }; result = old value
)

// String returns the op mnemonic.
func (op RegisterOp) String() string {
	switch op {
	case RegRead:
		return "read"
	case RegWrite:
		return "write"
	case RegAdd:
		return "add"
	case RegMax:
		return "max"
	case RegMin:
		return "min"
	case RegCAS:
		return "cas"
	default:
		return fmt.Sprintf("regop(%d)", int(op))
	}
}

// RegisterFile is an array of stateful cells local to one stage. Real RMT
// register files permit exactly one RMW per packet per file; the pipeline
// enforces that constraint, this type just provides the storage and ops.
type RegisterFile struct {
	cells []uint64 // nil until the first write; every cell reads zero
	size  int
	ops   uint64 // RMW operations executed (for accounting)
}

// RegCell is one non-zero cell of a sparse register image.
type RegCell struct {
	Idx uint32
	Val uint64
}

// NewRegisterFile returns a file of n zeroed cells. The size is an
// accounting limit, not an allocation: the cells are allocated by the
// first write, so reads, snapshots and resets of an untouched file see
// zeros and allocate no cells.
func NewRegisterFile(n int) *RegisterFile {
	return &RegisterFile{size: n}
}

// Size returns the number of cells.
func (f *RegisterFile) Size() int { return f.size }

// Ops returns the number of RMW operations executed.
func (f *RegisterFile) Ops() uint64 { return f.ops }

// check panics on an out-of-range index, allocated or not.
func (f *RegisterFile) check(idx int) {
	if uint(idx) >= uint(f.size) {
		panic(fmt.Sprintf("mat: register index %d out of range [0,%d)", idx, f.size))
	}
}

// Peek reads a cell without counting as an RMW (test/inspection use).
func (f *RegisterFile) Peek(idx int) uint64 {
	f.check(idx)
	if f.cells == nil {
		return 0
	}
	return f.cells[idx]
}

// Execute performs op on cell idx with argument arg and returns the result.
// Out-of-range indexes panic: the compiler layer is responsible for bounds.
func (f *RegisterFile) Execute(op RegisterOp, idx int, arg uint64) uint64 {
	f.ops++
	f.check(idx)
	if f.cells == nil {
		if op == RegRead {
			return 0
		}
		f.cells = make([]uint64, f.size)
	}
	cell := &f.cells[idx]
	switch op {
	case RegRead:
		return *cell
	case RegWrite:
		old := *cell
		*cell = arg
		return old
	case RegAdd:
		*cell += arg
		return *cell
	case RegMax:
		if arg > *cell {
			*cell = arg
		}
		return *cell
	case RegMin:
		if arg < *cell {
			*cell = arg
		}
		return *cell
	case RegCAS:
		old := *cell
		if old == 0 {
			*cell = arg
		}
		return old
	default:
		panic(fmt.Sprintf("mat: unknown register op %d", op))
	}
}

// Snapshot copies the cells (tests and result extraction).
func (f *RegisterFile) Snapshot() []uint64 {
	out := make([]uint64, f.size)
	copy(out, f.cells)
	return out
}

// NonZero returns the non-zero cells in ascending index order: the sparse
// checkpoint image of the file. An untouched file returns nil.
func (f *RegisterFile) NonZero() []RegCell {
	var out []RegCell
	for i, v := range f.cells {
		if v != 0 {
			out = append(out, RegCell{Idx: uint32(i), Val: v})
		}
	}
	return out
}

// Restore overwrites the file from a sparse checkpoint image (cells in
// strictly ascending index order, every other cell zero) and sets its RMW
// count. An all-zero image leaves an untouched file unallocated.
func (f *RegisterFile) Restore(cells []RegCell, ops uint64) error {
	last := -1
	for _, c := range cells {
		if int(c.Idx) <= last || int(c.Idx) >= f.size {
			return fmt.Errorf("mat: restore cell index %d out of order or range [0,%d)", c.Idx, f.size)
		}
		last = int(c.Idx)
	}
	f.Reset()
	for _, c := range cells {
		if c.Val == 0 {
			continue
		}
		if f.cells == nil {
			f.cells = make([]uint64, f.size)
		}
		f.cells[c.Idx] = c.Val
	}
	f.ops = ops
	return nil
}

// Reset zeroes all cells (keeps op count).
func (f *RegisterFile) Reset() { clear(f.cells) }
