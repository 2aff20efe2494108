package loopir

import (
	"math/rand"
	"strings"
	"testing"

	"dx100/internal/cpu"
	"dx100/internal/dx100"
	"dx100/internal/memspace"
)

// harness builds matching interpreter and machine states for a kernel,
// runs both, and compares every array.
type harness struct {
	k    *Kernel
	env  *Env
	sp   *memspace.Space
	m    *dx100.Machine
	bind Binder
	arrs map[string]memspace.Words
}

func newHarness(t *testing.T, k *Kernel, init map[string][]uint64, tileElems int) *harness {
	t.Helper()
	h := &harness{k: k, env: NewEnv(k), sp: memspace.New(),
		bind: Binder{Base: map[string]memspace.VAddr{}}, arrs: map[string]memspace.Words{}}
	h.m = dx100.NewMachine(h.sp, dx100.MachineConfig{Tiles: 32, TileElems: tileElems, Regs: 32})
	for name, info := range k.Arrays {
		size := info.DType.Size()
		a, err := h.sp.Words(h.sp.Alloc(name, uint64(size*info.Len)).Base, size, info.Len)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range init[name] {
			a.Set(i, v)
			h.env.Arrays[name][i] = a.Get(i)
		}
		h.bind.Base[name] = a.Base()
		h.arrs[name] = a
	}
	return h
}

// runBoth interprets the kernel and runs the compiled program, then
// compares every array element.
func (h *harness) runBoth(t *testing.T, chunk int) {
	t.Helper()
	if err := Interpret(h.k, h.env); err != nil {
		t.Fatalf("interpret: %v", err)
	}
	c, err := Compile(h.k, h.bind, h.m.Config().TileElems)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := c.Run(h.m, chunk); err != nil {
		t.Fatalf("run: %v", err)
	}
	for name, ref := range h.env.Arrays {
		for i := range ref {
			if got := h.arrs[name].Get(i); got != ref[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, got, ref[i])
			}
		}
	}
}

func randVals(rng *rand.Rand, n, mod int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Intn(mod))
	}
	return v
}

// gatherKernel is Figure 7a: for i in [0,n): C[i] = A[B[i]].
func gatherKernel(n, aLen int) *Kernel {
	return &Kernel{
		Name: "gather",
		Arrays: map[string]ArrayInfo{
			"A": {dx100.U64, aLen},
			"B": {dx100.U64, n},
			"C": {dx100.U64, n},
		},
		Var: "i", Lo: Imm{0}, Hi: Imm{int64(n)},
		Body: []Stmt{Store{Array: "C", Idx: Var{"i"}, Val: Load{"A", Load{"B", Var{"i"}}}}},
	}
}

func TestLowerGatherMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, aLen := 700, 512
	k := gatherKernel(n, aLen)
	h := newHarness(t, k, map[string][]uint64{
		"A": randVals(rng, aLen, 1_000_000),
		"B": randVals(rng, n, aLen),
	}, 256)
	h.runBoth(t, 0)
}

func TestLowerConditionalRMW(t *testing.T) {
	// UME GZP pattern: if (D[i] >= F) A[B[i]] += V[i].
	rng := rand.New(rand.NewSource(5))
	n, aLen := 500, 128
	k := &Kernel{
		Name: "gzp",
		Arrays: map[string]ArrayInfo{
			"A": {dx100.U64, aLen},
			"B": {dx100.U64, n},
			"D": {dx100.U64, n},
			"V": {dx100.U64, n},
		},
		Params: map[string]uint64{"F": 50},
		Var:    "i", Lo: Imm{0}, Hi: Imm{int64(n)},
		Body: []Stmt{If{
			Cond: Bin{dx100.OpGE, Load{"D", Var{"i"}}, Param{"F"}},
			Body: []Stmt{Update{Array: "A", Idx: Load{"B", Var{"i"}}, Op: dx100.OpAdd, Val: Load{"V", Var{"i"}}}},
		}},
	}
	h := newHarness(t, k, map[string][]uint64{
		"B": randVals(rng, n, aLen),
		"D": randVals(rng, n, 100),
		"V": randVals(rng, n, 1000),
	}, 128)
	h.runBoth(t, 0)
}

func TestLowerHashJoinAddressCalc(t *testing.T) {
	// PRH pattern: A[(C[i] & F) >> G] = C[i] with address calculation.
	rng := rand.New(rand.NewSource(8))
	n := 300
	k := &Kernel{
		Name: "prh",
		Arrays: map[string]ArrayInfo{
			"A": {dx100.U64, 64},
			"C": {dx100.U64, n},
		},
		Params: map[string]uint64{"F": 0xFF0, "G": 6},
		Var:    "i", Lo: Imm{0}, Hi: Imm{int64(n)},
		Body: []Stmt{Store{
			Array: "A",
			Idx:   Bin{dx100.OpShr, Bin{dx100.OpAnd, Load{"C", Var{"i"}}, Param{"F"}}, Param{"G"}},
			Val:   Load{"C", Var{"i"}},
		}},
	}
	h := newHarness(t, k, map[string][]uint64{"C": randVals(rng, n, 1<<12)}, 128)
	h.runBoth(t, 0)
}

func TestLowerDirectRangeLoop(t *testing.T) {
	// CG/PR pattern: for i: for j in H[i]..H[i+1]: Y[i] += X[B[j]].
	rng := rand.New(rand.NewSource(4))
	nRows, nnz, xLen := 60, 400, 64
	h64 := make([]uint64, nRows+1)
	for i := 1; i <= nRows; i++ {
		h64[i] = h64[i-1] + uint64(rng.Intn(2*nnz/nRows))
	}
	total := int(h64[nRows])
	k := &Kernel{
		Name: "spmv",
		Arrays: map[string]ArrayInfo{
			"H": {dx100.U64, nRows + 1},
			"B": {dx100.U64, total},
			"X": {dx100.U64, xLen},
			"Y": {dx100.U64, nRows},
		},
		Var: "i", Lo: Imm{0}, Hi: Imm{int64(nRows)},
		Body: []Stmt{Inner{
			Var: "j",
			Lo:  Load{"H", Var{"i"}},
			Hi:  Load{"H", Bin{dx100.OpAdd, Var{"i"}, Imm{1}}},
			Body: []Stmt{Update{Array: "Y", Idx: Var{"i"}, Op: dx100.OpAdd,
				Val: Load{"X", Load{"B", Var{"j"}}}}},
		}},
	}
	h := newHarness(t, k, map[string][]uint64{
		"H": h64,
		"B": randVals(rng, total, xLen),
		"X": randVals(rng, xLen, 1000),
	}, 1024)
	h.runBoth(t, 16)
}

func TestLowerIndirectRangeConditional(t *testing.T) {
	// BFS-like (Table 1): for i: for j in H[K[i]]..H[K[i]+1]:
	//   if (D[E[j]] < F) A[B[j]] = j.
	rng := rand.New(rand.NewSource(19))
	nFront, nNodes, nEdges := 40, 64, 300
	hArr := make([]uint64, nNodes+1)
	for i := 1; i <= nNodes; i++ {
		hArr[i] = hArr[i-1] + uint64(rng.Intn(2*nEdges/nNodes))
	}
	total := int(hArr[nNodes])
	k := &Kernel{
		Name: "bfs",
		Arrays: map[string]ArrayInfo{
			"H": {dx100.U64, nNodes + 1},
			"K": {dx100.U64, nFront},
			"B": {dx100.U64, total},
			"E": {dx100.U64, total},
			"D": {dx100.U64, nNodes},
			"A": {dx100.U64, nNodes},
		},
		Params: map[string]uint64{"F": 30},
		Var:    "i", Lo: Imm{0}, Hi: Imm{int64(nFront)},
		Body: []Stmt{Inner{
			Var: "j",
			Lo:  Load{"H", Load{"K", Var{"i"}}},
			Hi:  Load{"H", Bin{dx100.OpAdd, Load{"K", Var{"i"}}, Imm{1}}},
			Body: []Stmt{If{
				Cond: Bin{dx100.OpLT, Load{"D", Load{"E", Var{"j"}}}, Param{"F"}},
				Body: []Stmt{Store{Array: "A", Idx: Load{"B", Var{"j"}}, Val: Var{"j"}}},
			}},
		}},
	}
	h := newHarness(t, k, map[string][]uint64{
		"H": hArr,
		"K": randVals(rng, nFront, nNodes),
		"B": randVals(rng, max(total, 1), nNodes),
		"E": randVals(rng, max(total, 1), nNodes),
		"D": randVals(rng, nNodes, 60),
	}, 1024)
	h.runBoth(t, 16)
}

func TestLowerMultiLevelIndirection(t *testing.T) {
	// G[i] = A[B[C[i]]] (depth 2).
	rng := rand.New(rand.NewSource(2))
	n := 200
	k := &Kernel{
		Name: "gzzi",
		Arrays: map[string]ArrayInfo{
			"A": {dx100.U64, 128},
			"B": {dx100.U64, 128},
			"C": {dx100.U64, n},
			"G": {dx100.U64, n},
		},
		Var: "i", Lo: Imm{0}, Hi: Imm{int64(n)},
		Body: []Stmt{Store{Array: "G", Idx: Var{"i"},
			Val: Load{"A", Load{"B", Load{"C", Var{"i"}}}}}},
	}
	h := newHarness(t, k, map[string][]uint64{
		"A": randVals(rng, 128, 1000),
		"B": randVals(rng, 128, 128),
		"C": randVals(rng, n, 128),
	}, 128)
	h.runBoth(t, 0)
}

func TestLowerU32Arrays(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, aLen := 333, 256
	k := &Kernel{
		Name: "gather32",
		Arrays: map[string]ArrayInfo{
			"A": {dx100.U32, aLen},
			"B": {dx100.U32, n},
			"C": {dx100.U32, n},
		},
		Var: "i", Lo: Imm{0}, Hi: Imm{int64(n)},
		Body: []Stmt{Store{Array: "C", Idx: Var{"i"}, Val: Load{"A", Load{"B", Var{"i"}}}}},
	}
	h := newHarness(t, k, map[string][]uint64{
		"A": randVals(rng, aLen, 1<<30),
		"B": randVals(rng, n, aLen),
	}, 100)
	h.runBoth(t, 0)
}

func TestAnalyzeDepthsAndRanges(t *testing.T) {
	k := gatherKernel(10, 10)
	rep := Analyze(k)
	if rep.MaxDepth != 1 {
		t.Fatalf("gather depth = %d, want 1", rep.MaxDepth)
	}
	var foundStore bool
	for _, a := range rep.Accesses {
		if a.Array == "A" && a.Kind == AccLoad && a.Depth != 1 {
			t.Fatalf("A depth = %d", a.Depth)
		}
		if a.Array == "C" && a.Kind == AccStore {
			foundStore = true
			if a.Depth != 0 {
				t.Fatalf("C store depth = %d, want 0 (streaming)", a.Depth)
			}
		}
	}
	if !foundStore {
		t.Fatal("store access missing from report")
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestAnalyzeIndirectRange(t *testing.T) {
	k := &Kernel{
		Name:   "pr",
		Arrays: map[string]ArrayInfo{"H": {dx100.U64, 4}, "A": {dx100.U64, 4}, "B": {dx100.U64, 4}},
		Var:    "i", Lo: Imm{0}, Hi: Imm{3},
		Body: []Stmt{Inner{Var: "j", Lo: Load{"H", Var{"i"}}, Hi: Load{"H", Bin{dx100.OpAdd, Var{"i"}, Imm{1}}},
			Body: []Stmt{Update{Array: "A", Idx: Load{"B", Var{"j"}}, Op: dx100.OpAdd, Val: Imm{1}}}}},
	}
	rep := Analyze(k)
	if rep.RangeLoops != 1 {
		t.Fatalf("range loops = %d", rep.RangeLoops)
	}
	if rep.MaxDepth != 1 {
		t.Fatalf("depth = %d", rep.MaxDepth)
	}
}

func TestLegalRejectsGaussSeidel(t *testing.T) {
	// A is loaded at B[i] and stored at C[i]: possible aliasing (§4.2).
	k := &Kernel{
		Name:   "gs",
		Arrays: map[string]ArrayInfo{"A": {dx100.U64, 8}, "B": {dx100.U64, 8}, "C": {dx100.U64, 8}},
		Var:    "i", Lo: Imm{0}, Hi: Imm{8},
		Body: []Stmt{Store{Array: "A", Idx: Load{"C", Var{"i"}},
			Val: Load{"A", Load{"B", Var{"i"}}}}},
	}
	if err := Legal(k); err == nil {
		t.Fatal("Gauss-Seidel-style aliasing accepted")
	}
	if _, err := Compile(k, Binder{Base: map[string]memspace.VAddr{"A": 0, "B": 0, "C": 0}}, 64); err == nil {
		t.Fatal("Compile accepted illegal kernel")
	}
}

func TestLegalRejectsNonCommutativeRMW(t *testing.T) {
	k := &Kernel{
		Name:   "sub",
		Arrays: map[string]ArrayInfo{"A": {dx100.U64, 8}, "B": {dx100.U64, 8}},
		Var:    "i", Lo: Imm{0}, Hi: Imm{8},
		Body: []Stmt{Update{Array: "A", Idx: Load{"B", Var{"i"}}, Op: dx100.OpSub, Val: Imm{1}}},
	}
	if err := Legal(k); err == nil {
		t.Fatal("non-commutative RMW accepted")
	}
}

// TestCompileRejectsUnboundArray: the DX100 compiler and the baseline
// generator both refuse a kernel whose arrays are not all bound; the
// generator's error names the first unbound array it resolves.
func TestCompileRejectsUnboundArray(t *testing.T) {
	k := gatherKernel(8, 8)
	b := Binder{Base: map[string]memspace.VAddr{"A": 0}}
	if _, err := Compile(k, b, 64); err == nil {
		t.Fatal("unbound arrays accepted")
	}
	if _, err := NewUopGen(k, b, memspace.New(), 0, 8, false); err == nil || !strings.Contains(err.Error(), `unbound array "B"`) {
		t.Fatalf("baseline generator: err = %v, want one naming unbound array B", err)
	}
}

// TestUopGenIndexOutOfRangePanics: the generator checks every index
// it computes against its array's length, and a wild one stops the
// run with the array, the index and the length.
func TestUopGenIndexOutOfRangePanics(t *testing.T) {
	k := gatherKernel(4, 8)
	h := newHarness(t, k, map[string][]uint64{"B": {1, 2, 9, 3}}, 64)
	g, err := NewUopGen(k, h.bind, h.sp, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		const want = "loopir: baseline generation failed: A[9] out of range 8"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	var op cpu.MicroOp
	for g.Next(&op) {
	}
	t.Fatal("stream drained past an out-of-range index")
}

// TestUopGenZeroAllocs: once its buffer holds an outer iteration, the
// baseline generator allocates nothing per µop, here for a kernel with
// an Inner loop, an If and an RMW (for i: for j in H[i]..H[i+1]:
// if D[E[j]] < F: A[B[j]] += j).
func TestUopGenZeroAllocs(t *testing.T) {
	const n, deg = 1 << 12, 4
	k := &Kernel{
		Name: "rangecond",
		Arrays: map[string]ArrayInfo{
			"H": {dx100.U64, n + 1},
			"E": {dx100.U64, n * deg},
			"B": {dx100.U32, n * deg},
			"D": {dx100.U64, n * deg},
			"A": {dx100.U64, 64},
		},
		Params: map[string]uint64{"F": 1},
		Var:    "i", Lo: Imm{0}, Hi: Imm{n},
		Body: []Stmt{Inner{
			Var: "j",
			Lo:  Load{"H", Var{"i"}},
			Hi:  Load{"H", Bin{dx100.OpAdd, Var{"i"}, Imm{1}}},
			Body: []Stmt{If{
				Cond: Bin{dx100.OpLT, Load{"D", Load{"E", Var{"j"}}}, Param{"F"}},
				Body: []Stmt{Update{Array: "A", Idx: Load{"B", Var{"j"}}, Op: dx100.OpAdd, Val: Var{"j"}}},
			}},
		}},
	}
	sp := memspace.New()
	b := Binder{Base: map[string]memspace.VAddr{}}
	for name, info := range k.Arrays {
		b.Base[name] = sp.Alloc(name, uint64(info.Len*info.DType.Size())).Base
	}
	fill := func(name string, f func(i int) uint64) {
		w, err := sp.Words(b.Base[name], k.Arrays[name].DType.Size(), k.Arrays[name].Len)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.Len(); i++ {
			w.Set(i, f(i))
		}
	}
	// Every outer iteration emits the same µops: deg inner iterations,
	// every other one taking the If.
	fill("H", func(i int) uint64 { return uint64(i * deg) })
	fill("E", func(i int) uint64 { return uint64(i) })
	fill("D", func(i int) uint64 { return uint64(i % 2) })
	fill("B", func(i int) uint64 { return uint64(i % 64) })
	g, err := NewUopGen(k, b, sp, 0, n, false)
	if err != nil {
		t.Fatal(err)
	}
	var op cpu.MicroOp
	var kinds [cpu.Effect + 1]int
	for i := 0; i < 64 && g.Next(&op); i++ {
		kinds[op.Kind]++
	}
	if kinds[cpu.Load] == 0 || kinds[cpu.Store] == 0 {
		t.Fatalf("µop mix %v: the kernel no longer reaches its RMW", kinds)
	}
	pull := func() {
		for i := 0; i < 64; i++ {
			if !g.Next(&op) {
				t.Fatal("stream ended")
			}
		}
	}
	if a := testing.AllocsPerRun(100, pull); a != 0 {
		t.Fatalf("%v allocations per 64 µops, want 0", a)
	}
}

// Property: random gathers round-trip through the compiler for random
// sizes and tile boundaries.
func TestLowerGatherProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		aLen := 1 + rng.Intn(256)
		k := gatherKernel(n, aLen)
		h := newHarness(t, k, map[string][]uint64{
			"A": randVals(rng, aLen, 1_000_000),
			"B": randVals(rng, n, aLen),
		}, 64+rng.Intn(64))
		h.runBoth(t, 1+rng.Intn(64))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
