package dx100

import (
	"fmt"
	"math"
)

// Tile is one scratchpad tile: raw 64-bit element slots plus a logical
// size. Elements are stored as raw bit patterns and interpreted
// according to each instruction's DType, matching the hardware's
// untyped SRAM.
type Tile struct {
	bits []uint64
	size int
}

// Size returns the tile's logical element count.
func (t *Tile) Size() int { return t.size }

// SetSize sets the logical element count (§3.5: the scratchpad keeps a
// size per tile).
func (t *Tile) SetSize(n int) {
	if n > len(t.bits) {
		panic(fmt.Sprintf("dx100: tile size %d exceeds capacity %d", n, len(t.bits)))
	}
	t.size = n
}

// Cap returns the tile element capacity (TILE).
func (t *Tile) Cap() int { return len(t.bits) }

// Raw returns the raw bits of element i.
func (t *Tile) Raw(i int) uint64 { return t.bits[i] }

// SetRaw stores raw bits into element i.
func (t *Tile) SetRaw(i int, v uint64) { t.bits[i] = v }

// bitsOf converts a typed value into the tile's raw representation.
func bitsOf(d DType, v float64) uint64 {
	switch d {
	case F32:
		return uint64(math.Float32bits(float32(v)))
	case F64:
		return math.Float64bits(v)
	case I32:
		return uint64(uint32(int32(v)))
	case I64:
		return uint64(int64(v))
	case U32:
		return uint64(uint32(v))
	default:
		return uint64(v)
	}
}

// valueOf interprets raw bits as a float64 for inspection.
func valueOf(d DType, raw uint64) float64 {
	switch d {
	case F32:
		return float64(math.Float32frombits(uint32(raw)))
	case F64:
		return math.Float64frombits(raw)
	case I32:
		return float64(int32(uint32(raw)))
	case I64:
		return float64(int64(raw))
	case U32:
		return float64(uint32(raw))
	default:
		return float64(raw)
	}
}

// EvalALU applies op to two raw operands interpreted as d, exactly as
// the tile ALU does. It is exported for the loop-IR reference
// interpreter.
func EvalALU(op ALUOp, d DType, a, b uint64) uint64 { return aluEval(op, d, a, b) }

// BitsOf converts a numeric value to the raw representation of d.
func BitsOf(d DType, v float64) uint64 { return bitsOf(d, v) }

// aluEval applies op to two raw operands interpreted as d.
func aluEval(op ALUOp, d DType, a, b uint64) uint64 {
	switch d {
	case F32:
		x, y := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
		return uint64(math.Float32bits(aluFloat32(op, x, y)))
	case F64:
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		return math.Float64bits(aluFloat64(op, x, y))
	case I32:
		return uint64(uint32(aluInt64(op, int64(int32(uint32(a))), int64(int32(uint32(b))))))
	case I64:
		return uint64(aluInt64(op, int64(a), int64(b)))
	case U32:
		return uint64(uint32(aluUint64(op, uint64(uint32(a)), uint64(uint32(b)))))
	default:
		return aluUint64(op, a, b)
	}
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func aluUint64(op ALUOp, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShr:
		return a >> (b & 63)
	case OpShl:
		return a << (b & 63)
	case OpLT:
		return boolBits(a < b)
	case OpLE:
		return boolBits(a <= b)
	case OpGT:
		return boolBits(a > b)
	case OpGE:
		return boolBits(a >= b)
	case OpEQ:
		return boolBits(a == b)
	}
	panic(fmt.Sprintf("dx100: bad ALU op %d", op))
}

func aluInt64(op ALUOp, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShr:
		return a >> (uint64(b) & 63)
	case OpShl:
		return a << (uint64(b) & 63)
	case OpLT:
		return int64(boolBits(a < b))
	case OpLE:
		return int64(boolBits(a <= b))
	case OpGT:
		return int64(boolBits(a > b))
	case OpGE:
		return int64(boolBits(a >= b))
	case OpEQ:
		return int64(boolBits(a == b))
	}
	panic(fmt.Sprintf("dx100: bad ALU op %d", op))
}

func aluFloat64(op ALUOp, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	case OpLT:
		return float64(boolBits(a < b))
	case OpLE:
		return float64(boolBits(a <= b))
	case OpGT:
		return float64(boolBits(a > b))
	case OpGE:
		return float64(boolBits(a >= b))
	case OpEQ:
		return float64(boolBits(a == b))
	}
	panic(fmt.Sprintf("dx100: ALU op %s not defined for floats", op))
}

func aluFloat32(op ALUOp, a, b float32) float32 {
	return float32(aluFloat64(op, float64(a), float64(b)))
}
