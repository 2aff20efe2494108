package dx100

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dx100/internal/memspace"
)

func newTestMachine(tileElems int) (*memspace.Space, *Machine) {
	sp := memspace.New()
	m := NewMachine(sp, MachineConfig{Tiles: 8, TileElems: tileElems, Regs: 16})
	return sp, m
}

// words allocates n size-byte words under name and returns their view.
func words(sp *memspace.Space, size int, name string, n int) memspace.Words {
	w, err := sp.Words(sp.Alloc(name, uint64(size*n)).Base, size, n)
	if err != nil {
		panic(err)
	}
	return w
}

// elemIndex converts an element address offset into an index operand.
func mustExec(t *testing.T, m *Machine, in Instr) {
	t.Helper()
	if err := m.Exec(in); err != nil {
		t.Fatalf("exec %s: %v", in.Op, err)
	}
}

func TestSLDThenILDGather(t *testing.T) {
	sp, m := newTestMachine(64)
	a := words(sp, 4, "A", 256)
	b := words(sp, 4, "B", 64)
	for i := 0; i < 256; i++ {
		a.Set(i, uint64(i*3))
	}
	perm := rand.New(rand.NewSource(1)).Perm(256)
	for i := 0; i < 64; i++ {
		b.Set(i, uint64(perm[i]))
	}
	m.SetReg(0, 0)  // start
	m.SetReg(1, 64) // count
	m.SetReg(2, 1)  // stride
	mustExec(t, m, Instr{Op: SLD, DType: U32, Base: b.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile})
	mustExec(t, m, Instr{Op: ILD, DType: U32, Base: a.Base(), TD: 1, TS1: 0, TC: NoTile})
	td := m.Tile(1)
	if td.Size() != 64 {
		t.Fatalf("dest size = %d", td.Size())
	}
	for i := 0; i < 64; i++ {
		want := uint64(perm[i] * 3)
		if td.Raw(i) != want {
			t.Fatalf("gather[%d] = %d, want %d", i, td.Raw(i), want)
		}
	}
}

func TestSLDStrideAndStart(t *testing.T) {
	sp, m := newTestMachine(16)
	a := words(sp, 8, "A", 100)
	for i := 0; i < 100; i++ {
		a.Set(i, uint64(1000+i))
	}
	m.SetReg(0, 10) // start at element 10
	m.SetReg(1, 5)  // 5 elements
	m.SetReg(2, 3)  // stride 3
	mustExec(t, m, Instr{Op: SLD, DType: U64, Base: a.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile})
	for i := 0; i < 5; i++ {
		if got := m.Tile(0).Raw(i); got != uint64(1000+10+3*i) {
			t.Fatalf("sld[%d] = %d", i, got)
		}
	}
}

func TestISTScatter(t *testing.T) {
	sp, m := newTestMachine(16)
	a := words(sp, 4, "A", 64)
	idx := m.Tile(0)
	val := m.Tile(1)
	for i := 0; i < 8; i++ {
		idx.SetRaw(i, uint64(i*7%64))
		val.SetRaw(i, uint64(100+i))
	}
	idx.SetSize(8)
	val.SetSize(8)
	mustExec(t, m, Instr{Op: IST, DType: U32, Base: a.Base(), TS1: 0, TS2: 1, TC: NoTile})
	for i := 0; i < 8; i++ {
		if got := a.Get(i * 7 % 64); got != uint64(100+i) {
			t.Fatalf("A[%d] = %d", i*7%64, got)
		}
	}
}

func TestIRMWAccumulate(t *testing.T) {
	sp, m := newTestMachine(16)
	a := words(sp, 8, "A", 8)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, 10)
	}
	idx, val := m.Tile(0), m.Tile(1)
	// Three updates to the same element: must all apply.
	targets := []int{2, 2, 2, 5}
	for i, tg := range targets {
		idx.SetRaw(i, uint64(tg))
		val.SetRaw(i, uint64(i+1))
	}
	idx.SetSize(len(targets))
	val.SetSize(len(targets))
	mustExec(t, m, Instr{Op: IRMW, DType: U64, ALU: OpAdd, Base: a.Base(), TS1: 0, TS2: 1, TC: NoTile})
	if got := a.Get(2); got != 10+1+2+3 {
		t.Fatalf("A[2] = %d, want 16", got)
	}
	if got := a.Get(5); got != 14 {
		t.Fatalf("A[5] = %d, want 14", got)
	}
}

func TestConditionalISTSkips(t *testing.T) {
	sp, m := newTestMachine(16)
	a := words(sp, 4, "A", 16)
	idx, val, cond := m.Tile(0), m.Tile(1), m.Tile(2)
	for i := 0; i < 4; i++ {
		idx.SetRaw(i, uint64(i))
		val.SetRaw(i, 99)
		cond.SetRaw(i, uint64(i%2)) // odd iterations only
	}
	idx.SetSize(4)
	val.SetSize(4)
	cond.SetSize(4)
	mustExec(t, m, Instr{Op: IST, DType: U32, Base: a.Base(), TS1: 0, TS2: 1, TC: 2})
	for i := 0; i < 4; i++ {
		want := uint64(0)
		if i%2 == 1 {
			want = 99
		}
		if got := a.Get(i); got != want {
			t.Fatalf("A[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestALUVAndALUS(t *testing.T) {
	_, m := newTestMachine(16)
	a, b := m.Tile(0), m.Tile(1)
	for i := 0; i < 8; i++ {
		a.SetRaw(i, uint64(i))
		b.SetRaw(i, uint64(i*i))
	}
	a.SetSize(8)
	b.SetSize(8)
	mustExec(t, m, Instr{Op: ALUV, DType: U64, ALU: OpAdd, TD: 2, TS1: 0, TS2: 1, TC: NoTile})
	for i := 0; i < 8; i++ {
		if got := m.Tile(2).Raw(i); got != uint64(i+i*i) {
			t.Fatalf("aluv[%d] = %d", i, got)
		}
	}
	m.SetReg(3, 2)
	mustExec(t, m, Instr{Op: ALUS, DType: U64, ALU: OpShl, TD: 3, TS1: 0, RS1: 3, TC: NoTile})
	for i := 0; i < 8; i++ {
		if got := m.Tile(3).Raw(i); got != uint64(i*4) {
			t.Fatalf("alus[%d] = %d", i, got)
		}
	}
}

func TestALUSComparisonProducesConditionTile(t *testing.T) {
	_, m := newTestMachine(16)
	d := m.Tile(0)
	for i := 0; i < 6; i++ {
		d.SetRaw(i, uint64(i))
	}
	d.SetSize(6)
	m.SetReg(0, 3)
	// cond[i] = (d[i] >= 3), the UME pattern of Table 1.
	mustExec(t, m, Instr{Op: ALUS, DType: U64, ALU: OpGE, TD: 1, TS1: 0, RS1: 0, TC: NoTile})
	for i := 0; i < 6; i++ {
		want := uint64(0)
		if i >= 3 {
			want = 1
		}
		if got := m.Tile(1).Raw(i); got != want {
			t.Fatalf("cond[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestRNGFusesRanges(t *testing.T) {
	_, m := newTestMachine(64)
	lo, hi := m.Tile(0), m.Tile(1)
	// Ranges: [0,2), [5,5) (empty), [7,10).
	lo.SetRaw(0, 0)
	hi.SetRaw(0, 2)
	lo.SetRaw(1, 5)
	hi.SetRaw(1, 5)
	lo.SetRaw(2, 7)
	hi.SetRaw(2, 10)
	lo.SetSize(3)
	hi.SetSize(3)
	m.SetReg(0, 1)
	mustExec(t, m, Instr{Op: RNG, TD: 2, TD2: 3, TS1: 0, TS2: 1, RS1: 0, TC: NoTile})
	outer, inner := m.Tile(2), m.Tile(3)
	wantOuter := []uint64{0, 0, 2, 2, 2}
	wantInner := []uint64{0, 1, 7, 8, 9}
	if outer.Size() != 5 || inner.Size() != 5 {
		t.Fatalf("fused sizes = %d/%d, want 5", outer.Size(), inner.Size())
	}
	for i := range wantOuter {
		if outer.Raw(i) != wantOuter[i] || inner.Raw(i) != wantInner[i] {
			t.Fatalf("fused[%d] = (%d,%d), want (%d,%d)", i, outer.Raw(i), inner.Raw(i), wantOuter[i], wantInner[i])
		}
	}
}

func TestRNGOverflowErrors(t *testing.T) {
	_, m := newTestMachine(4)
	lo, hi := m.Tile(0), m.Tile(1)
	lo.SetRaw(0, 0)
	hi.SetRaw(0, 100) // far beyond capacity 4
	lo.SetSize(1)
	hi.SetSize(1)
	if err := m.Exec(Instr{Op: RNG, TD: 2, TD2: 3, TS1: 0, TS2: 1, TC: NoTile}); err == nil {
		t.Fatal("RNG overflow not detected")
	}
}

func TestSSTStreamsBack(t *testing.T) {
	sp, m := newTestMachine(16)
	c := words(sp, 4, "C", 16)
	src := m.Tile(0)
	for i := 0; i < 8; i++ {
		src.SetRaw(i, uint64(i+50))
	}
	src.SetSize(8)
	m.SetReg(0, 4) // start at element 4
	m.SetReg(1, 8)
	m.SetReg(2, 1)
	mustExec(t, m, Instr{Op: SST, DType: U32, Base: c.Base(), TS1: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile})
	for i := 0; i < 8; i++ {
		if got := c.Get(4 + i); got != uint64(i+50) {
			t.Fatalf("C[%d] = %d", 4+i, got)
		}
	}
}

func TestMultiLevelIndirection(t *testing.T) {
	// A[B[C[i]]] — two chained ILDs (Table 1, UME GZZI pattern).
	sp, m := newTestMachine(16)
	a := words(sp, 8, "A", 32)
	b := words(sp, 4, "B", 32)
	c := words(sp, 4, "C", 8)
	for i := 0; i < 32; i++ {
		a.Set(i, uint64(i+1000))
		b.Set(i, uint64((i*5)%32))
	}
	for i := 0; i < 8; i++ {
		c.Set(i, uint64((i*3)%32))
	}
	m.SetReg(0, 0)
	m.SetReg(1, 8)
	m.SetReg(2, 1)
	mustExec(t, m, Instr{Op: SLD, DType: U32, Base: c.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile})
	mustExec(t, m, Instr{Op: ILD, DType: U32, Base: b.Base(), TD: 1, TS1: 0, TC: NoTile})
	mustExec(t, m, Instr{Op: ILD, DType: U64, Base: a.Base(), TD: 2, TS1: 1, TC: NoTile})
	for i := 0; i < 8; i++ {
		want := uint64((i*3%32)*5%32 + 1000)
		if got := m.Tile(2).Raw(i); got != want {
			t.Fatalf("A[B[C[%d]]] = %d, want %d", i, got, want)
		}
	}
}

// Property: for random indices and values, IRMW(add) matches a
// reference scalar loop.
func TestIRMWMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, m := newTestMachine(32)
		arrLen := 16
		a := words(sp, 8, "A", arrLen)
		ref := make([]uint64, arrLen)
		n := 1 + rng.Intn(32)
		idx, val := m.Tile(0), m.Tile(1)
		for i := 0; i < n; i++ {
			k := rng.Intn(arrLen)
			v := rng.Uint64() % 1000
			idx.SetRaw(i, uint64(k))
			val.SetRaw(i, v)
			ref[k] += v
		}
		idx.SetSize(n)
		val.SetSize(n)
		if err := m.Exec(Instr{Op: IRMW, DType: U64, ALU: OpAdd, Base: a.Base(), TS1: 0, TS2: 1, TC: NoTile}); err != nil {
			return false
		}
		for k := 0; k < arrLen; k++ {
			if a.Get(k) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: gather (SLD+ILD) equals the reference loop A[B[i]] for
// random permutations.
func TestGatherMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, m := newTestMachine(64)
		a := words(sp, 4, "A", 128)
		b := words(sp, 4, "B", 64)
		for i := 0; i < 128; i++ {
			a.Set(i, uint64(rng.Uint32()))
		}
		n := 1 + rng.Intn(64)
		for i := 0; i < n; i++ {
			b.Set(i, uint64(rng.Intn(128)))
		}
		m.SetReg(0, 0)
		m.SetReg(1, uint64(n))
		m.SetReg(2, 1)
		prog := []Instr{
			{Op: SLD, DType: U32, Base: b.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile},
			{Op: ILD, DType: U32, Base: a.Base(), TD: 1, TS1: 0, TC: NoTile},
		}
		if err := m.ExecProgram(prog); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if uint32(m.Tile(1).Raw(i)) != uint32(a.Get(int(b.Get(i)))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExecProgramStopsOnError(t *testing.T) {
	_, m := newTestMachine(8)
	prog := []Instr{{Op: ALUV, ALU: OpNone}}
	if err := m.ExecProgram(prog); err == nil {
		t.Fatal("want error")
	}
}
