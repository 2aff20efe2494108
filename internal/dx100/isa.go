// Package dx100 implements the paper's primary contribution: the DX100
// programmable data access accelerator. It provides the eight-
// instruction ISA of Table 2, a functional machine (the paper's
// "functional simulator", §5) executing programs against simulated
// memory, and a timing model (§3) built around the Row Table / Word
// Table reordering-coalescing-interleaving pipeline, the scratchpad
// with ready/finish bits, the stream and indirect access units, the
// range fuser, the tile ALU, the controller scoreboard, the TLB and
// the cache snoop that sets the H bit.
package dx100

import (
	"fmt"

	"dx100/internal/memspace"
)

// Opcode enumerates the eight DX100 instructions (Table 2).
type Opcode uint8

const (
	// ILD is an indirect load: TD[i] = mem[BASE + TS1[i]].
	ILD Opcode = iota
	// IST is an indirect store: mem[BASE + TS1[i]] = TS2[i].
	IST
	// IRMW is an indirect read-modify-write: mem[BASE + TS1[i]] OP= TS2[i].
	IRMW
	// SLD is a streaming load: TD[i] = mem[BASE + (start + i*stride)].
	SLD
	// SST is a streaming store: mem[BASE + (start + i*stride)] = TS1[i].
	SST
	// ALUV is a vector-vector tile operation: TD[i] = TS1[i] OP TS2[i].
	ALUV
	// ALUS is a vector-scalar tile operation: TD[i] = TS1[i] OP reg[RS1].
	ALUS
	// RNG fuses range loops: for each i, for j in TS1[i]..TS2[i]-1,
	// append i to TD1 and j to TD2 (Figure 5).
	RNG
)

var opcodeNames = [...]string{"ILD", "IST", "IRMW", "SLD", "SST", "ALUV", "ALUS", "RNG"}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// DType enumerates the supported element types.
type DType uint8

const (
	// U32 is an unsigned 32-bit element.
	U32 DType = iota
	// I32 is a signed 32-bit element.
	I32
	// F32 is a 32-bit float element.
	F32
	// U64 is an unsigned 64-bit element.
	U64
	// I64 is a signed 64-bit element.
	I64
	// F64 is a 64-bit float element.
	F64
)

var dtypeNames = [...]string{"u32", "i32", "f32", "u64", "i64", "f64"}

func (d DType) String() string {
	if int(d) < len(dtypeNames) {
		return dtypeNames[d]
	}
	return fmt.Sprintf("DType(%d)", uint8(d))
}

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case U32, I32, F32:
		return 4
	default:
		return 8
	}
}

// ALUOp enumerates the arithmetic, bitwise and comparison operations
// (§3.1).
type ALUOp uint8

const (
	// OpNone means no ALU operation.
	OpNone ALUOp = iota
	// OpAdd adds.
	OpAdd
	// OpSub subtracts.
	OpSub
	// OpMul multiplies.
	OpMul
	// OpMin takes the minimum.
	OpMin
	// OpMax takes the maximum.
	OpMax
	// OpAnd is bitwise AND.
	OpAnd
	// OpOr is bitwise OR.
	OpOr
	// OpXor is bitwise XOR.
	OpXor
	// OpShr shifts right.
	OpShr
	// OpShl shifts left.
	OpShl
	// OpLT compares less-than, producing 1 or 0.
	OpLT
	// OpLE compares less-or-equal.
	OpLE
	// OpGT compares greater-than.
	OpGT
	// OpGE compares greater-or-equal.
	OpGE
	// OpEQ compares equality.
	OpEQ
)

var aluOpNames = [...]string{"none", "add", "sub", "mul", "min", "max", "and", "or", "xor", "shr", "shl", "lt", "le", "gt", "ge", "eq"}

func (o ALUOp) String() string {
	if int(o) < len(aluOpNames) {
		return aluOpNames[o]
	}
	return fmt.Sprintf("ALUOp(%d)", uint8(o))
}

// Commutative reports whether the operation is associative and
// commutative, i.e. legal for IRMW, whose Row Table reorders updates
// (§3.1).
func (o ALUOp) Commutative() bool {
	switch o {
	case OpAdd, OpMul, OpMin, OpMax, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// NoTile marks an unused tile operand (e.g. an unconditional TC).
const NoTile = 63

// Instr is one decoded DX100 instruction. Tile operands are scratchpad
// tile indices; register operands index the scalar register file.
type Instr struct {
	Op    Opcode
	DType DType
	ALU   ALUOp
	Base  memspace.VAddr // base virtual address for memory instructions
	TD    uint8          // destination tile (TD1 for RNG)
	TD2   uint8          // second destination tile (RNG only)
	TS1   uint8          // first source tile
	TS2   uint8          // second source tile
	TC    uint8          // condition tile, NoTile when unconditional
	RS1   uint8          // scalar registers (loop bounds, stride, ALUS operand)
	RS2   uint8
	RS3   uint8
}

func (in Instr) String() string {
	return fmt.Sprintf("%s.%s base=%#x td=%d td2=%d ts1=%d ts2=%d tc=%d rs=(%d,%d,%d) op=%s",
		in.Op, in.DType, uint64(in.Base), in.TD, in.TD2, in.TS1, in.TS2, in.TC, in.RS1, in.RS2, in.RS3, in.ALU)
}

// Validate checks structural constraints: opcode-specific operand use
// and the IRMW commutativity requirement.
func (in Instr) Validate() error {
	if in.Op > RNG {
		return fmt.Errorf("dx100: invalid opcode %d", in.Op)
	}
	if in.DType > F64 {
		return fmt.Errorf("dx100: invalid dtype %d", in.DType)
	}
	if in.Op == IRMW && !in.ALU.Commutative() {
		return fmt.Errorf("dx100: IRMW requires an associative+commutative op, got %s", in.ALU)
	}
	if (in.Op == ALUV || in.Op == ALUS) && in.ALU == OpNone {
		return fmt.Errorf("dx100: %s requires an ALU op", in.Op)
	}
	return nil
}
