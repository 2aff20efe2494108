package dx100

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	ok := Instr{Op: IRMW, ALU: OpAdd, TC: NoTile}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid IRMW rejected: %v", err)
	}
	bad := Instr{Op: IRMW, ALU: OpSub, TC: NoTile}
	if err := bad.Validate(); err == nil {
		t.Fatal("IRMW with non-commutative op accepted")
	}
	noop := Instr{Op: ALUV, ALU: OpNone}
	if err := noop.Validate(); err == nil {
		t.Fatal("ALUV without op accepted")
	}
}

func TestCommutativeSet(t *testing.T) {
	for _, op := range []ALUOp{OpAdd, OpMul, OpMin, OpMax, OpAnd, OpOr, OpXor} {
		if !op.Commutative() {
			t.Errorf("%s should be commutative", op)
		}
	}
	for _, op := range []ALUOp{OpSub, OpShr, OpShl, OpLT, OpEQ} {
		if op.Commutative() {
			t.Errorf("%s should not be commutative", op)
		}
	}
}

func TestDTypeSizes(t *testing.T) {
	for d, want := range map[DType]int{U32: 4, I32: 4, F32: 4, U64: 8, I64: 8, F64: 8} {
		if d.Size() != want {
			t.Errorf("%s size = %d, want %d", d, d.Size(), want)
		}
	}
}

func TestStringers(t *testing.T) {
	if ILD.String() != "ILD" || RNG.String() != "RNG" {
		t.Fatal("opcode names wrong")
	}
	if U32.String() != "u32" || F64.String() != "f64" {
		t.Fatal("dtype names wrong")
	}
	if OpAdd.String() != "add" {
		t.Fatal("aluop names wrong")
	}
	in := Instr{Op: SLD}
	if in.String() == "" {
		t.Fatal("empty instr string")
	}
}

func TestALUEvalInts(t *testing.T) {
	cases := []struct {
		op   ALUOp
		d    DType
		a, b uint64
		want uint64
	}{
		{OpAdd, U32, 7, 5, 12},
		{OpSub, U32, 7, 5, 2},
		{OpSub, U32, 5, 7, 0xFFFFFFFE}, // wraps in 32 bits
		{OpMul, U64, 3, 5, 15},
		{OpMin, I32, uint64(uint32(0xFFFFFFFF)), 1, uint64(uint32(0xFFFFFFFF))}, // -1 < 1 signed
		{OpMax, U32, 0xFFFFFFFF, 1, 0xFFFFFFFF},
		{OpAnd, U64, 0b1100, 0b1010, 0b1000},
		{OpOr, U64, 0b1100, 0b1010, 0b1110},
		{OpXor, U64, 0b1100, 0b1010, 0b0110},
		{OpShr, U32, 0x80, 3, 0x10},
		{OpShl, U32, 0x1, 4, 0x10},
		{OpLT, I64, uint64(^uint64(0)), 0, 1}, // -1 < 0
		{OpLT, U64, ^uint64(0), 0, 0},
		{OpGE, U32, 5, 5, 1},
		{OpEQ, U64, 9, 9, 1},
		{OpEQ, U64, 9, 8, 0},
	}
	for _, c := range cases {
		if got := aluEval(c.op, c.d, c.a, c.b); got != c.want {
			t.Errorf("%s.%s(%#x, %#x) = %#x, want %#x", c.op, c.d, c.a, c.b, got, c.want)
		}
	}
}

func TestALUEvalFloats(t *testing.T) {
	a, b := bitsOf(F64, 2.5), bitsOf(F64, 4.0)
	if got := math.Float64frombits(aluEval(OpAdd, F64, a, b)); got != 6.5 {
		t.Fatalf("f64 add = %v", got)
	}
	if got := math.Float64frombits(aluEval(OpMax, F64, a, b)); got != 4.0 {
		t.Fatalf("f64 max = %v", got)
	}
	if got := aluEval(OpLT, F64, a, b); got == 0 {
		t.Fatal("2.5 < 4.0 should be true")
	}
	a32, b32 := bitsOf(F32, 1.5), bitsOf(F32, -1.5)
	if got := math.Float32frombits(uint32(aluEval(OpMul, F32, a32, b32))); got != -2.25 {
		t.Fatalf("f32 mul = %v", got)
	}
}

// Property: integer min/max agree with comparisons for u64.
func TestALUMinMaxProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		mn := aluEval(OpMin, U64, a, b)
		mx := aluEval(OpMax, U64, a, b)
		return mn <= mx && (mn == a || mn == b) && (mx == a || mx == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
