package dx100

import (
	"math/rand"
	"testing"

	"dx100/internal/cache"
	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

type rig struct {
	eng   *sim.Engine
	st    *sim.Stats
	sp    *memspace.Space
	mem   *dram.System
	hier  *cache.Hierarchy
	accel *Accel
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 20_000_000
	st := sim.NewStats()
	sp := memspace.New()
	mem := dram.NewSystem(eng, dram.DDR4_3200(), st, "dram.")
	hier := cache.NewHierarchy(eng, cache.SkylakeLike(4, 8<<20), mem, st, "")
	accel := New(eng, cfg, sp, mem, hier.LLC, hier, st, "dx100.")
	return &rig{eng: eng, st: st, sp: sp, mem: mem, hier: hier, accel: accel}
}

func (r *rig) run(t *testing.T) sim.Cycle {
	t.Helper()
	end, err := r.eng.Run(nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !r.accel.Idle() {
		t.Fatal("accelerator not idle at quiescence")
	}
	return end
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Machine.TileElems = 1024
	return cfg
}

func TestAccelGatherEndToEnd(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, cfg)
	n := 1024
	aSize := 1 << 16
	arrA := words(r.sp, 4, "A", aSize)
	arrB := words(r.sp, 4, "B", n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < aSize; i++ {
		arrA.Set(i, uint64(i)^0xABCD)
	}
	for i := 0; i < n; i++ {
		arrB.Set(i, uint64(rng.Intn(aSize)))
	}
	ac := r.accel
	ac.TLB().Preload(r.sp.RegionOf(arrA.Base()))
	ac.TLB().Preload(r.sp.RegionOf(arrB.Base()))
	ac.SetReg(0, 0)
	ac.SetReg(1, uint64(n))
	ac.SetReg(2, 1)
	if err := ac.Send(Instr{Op: SLD, DType: U32, Base: arrB.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: 1, TS1: 0, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	end := r.run(t)
	if end == 0 {
		t.Fatal("no cycles elapsed")
	}
	// Functional result must match the reference loop.
	for i := 0; i < n; i++ {
		want := uint64(arrA.Get(int(arrB.Get(i))))
		if got := ac.Machine().Tile(1).Raw(i); got != want {
			t.Fatalf("gather[%d] = %d, want %d", i, got, want)
		}
	}
	if ac.tileRefs[0] != 0 || ac.tileRefs[1] != 0 {
		t.Fatal("tiles not ready after completion")
	}
	// The reordering must produce a high row-buffer hit rate even for
	// random indices (the paper's central mechanism).
	if rbh := r.mem.RowBufferHitRate(); rbh < 0.5 {
		t.Fatalf("row-buffer hit rate %.2f, want > 0.5 with reordering", rbh)
	}
	if r.st.Get("dx100.req.direct") == 0 {
		t.Fatal("no direct DRAM requests recorded")
	}
	if r.st.Get("dx100.tlb.misses") != 0 {
		t.Fatalf("TLB misses = %v after preload", r.st.Get("dx100.tlb.misses"))
	}
}

func TestAccelReadyBitsDropOnSend(t *testing.T) {
	r := newRig(t, smallCfg())
	arr := words(r.sp, 4, "A", 1024)
	ac := r.accel
	ac.SetReg(0, 0)
	ac.SetReg(1, 64)
	ac.SetReg(2, 1)
	if ac.tileRefs[0] != 0 {
		t.Fatal("tile should start ready")
	}
	if err := ac.Send(Instr{Op: SLD, DType: U32, Base: arr.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	if ac.tileRefs[0] == 0 {
		t.Fatal("tile ready immediately after send")
	}
	r.run(t)
	if ac.tileRefs[0] != 0 {
		t.Fatal("tile not ready after run")
	}
}

func TestAccelScatterWritesMemory(t *testing.T) {
	r := newRig(t, smallCfg())
	n := 512
	arrA := words(r.sp, 4, "A", 1<<14)
	ac := r.accel
	idx, val := ac.Machine().Tile(0), ac.Machine().Tile(1)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(1 << 14)
	for i := 0; i < n; i++ {
		idx.SetRaw(i, uint64(perm[i]))
		val.SetRaw(i, uint64(i+7))
	}
	idx.SetSize(n)
	val.SetSize(n)
	if err := ac.Send(Instr{Op: IST, DType: U32, Base: arrA.Base(), TS1: 0, TS2: 1, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	for i := 0; i < n; i++ {
		if got := arrA.Get(perm[i]); got != uint64(i+7) {
			t.Fatalf("A[%d] = %d, want %d", perm[i], got, i+7)
		}
	}
	// Stores write back: DRAM write traffic and writeback stat.
	if r.st.Get("dx100.writebacks") == 0 {
		t.Fatal("no writebacks for IST")
	}
	if r.st.Get("dram.writes") == 0 {
		t.Fatal("no DRAM writes")
	}
}

func TestAccelIRMWAccumulates(t *testing.T) {
	r := newRig(t, smallCfg())
	arrA := words(r.sp, 8, "A", 256)
	for i := 0; i < arrA.Len(); i++ {
		arrA.Set(i, 5)
	}
	ac := r.accel
	idx, val := ac.Machine().Tile(0), ac.Machine().Tile(1)
	// Many updates to few locations: coalescing should merge them.
	n := 512
	for i := 0; i < n; i++ {
		idx.SetRaw(i, uint64(i%16))
		val.SetRaw(i, 1)
	}
	idx.SetSize(n)
	val.SetSize(n)
	if err := ac.Send(Instr{Op: IRMW, DType: U64, ALU: OpAdd, Base: arrA.Base(), TS1: 0, TS2: 1, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	for k := 0; k < 16; k++ {
		if got := arrA.Get(k); got != 5+uint64(n/16) {
			t.Fatalf("A[%d] = %d, want %d", k, got, 5+n/16)
		}
	}
	if r.st.Get("dx100.rt.coalesced") == 0 {
		t.Fatal("no coalescing on a 32x-redundant pattern")
	}
	// 512 updates to 16 distinct locations spanning 2 lines: far fewer
	// memory requests than updates.
	if reqs := r.st.Get("dx100.req.direct"); reqs > 64 {
		t.Fatalf("requests = %v, coalescing ineffective", reqs)
	}
}

func TestAccelChainingOverlapsSLDandILD(t *testing.T) {
	// With fine-grained chaining (finish bits, §3.5), SLD+ILD should
	// take much less than the sum of running them serialized.
	cfg := smallCfg()
	n := 1024
	build := func(serialize bool) sim.Cycle {
		r := newRig(t, cfg)
		arrA := words(r.sp, 4, "A", 1<<16)
		arrB := words(r.sp, 4, "B", n)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < n; i++ {
			arrB.Set(i, uint64(rng.Intn(1<<16)))
		}
		ac := r.accel
		ac.SetReg(0, 0)
		ac.SetReg(1, uint64(n))
		ac.SetReg(2, 1)
		if err := ac.Send(Instr{Op: SLD, DType: U32, Base: arrB.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile}); err != nil {
			t.Fatal(err)
		}
		if serialize {
			end, err := r.eng.Run(nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			_ = end
		}
		if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: 1, TS1: 0, TC: NoTile}); err != nil {
			t.Fatal(err)
		}
		return r.run(t)
	}
	chained := build(false)
	serial := build(true)
	// The saving is bounded by the SLD duration (the ILD dominates);
	// require a clear, non-noise overlap.
	if chained+100 >= serial {
		t.Fatalf("chained %d vs serialized %d: expected overlap", chained, serial)
	}
}

func TestAccelConditionalISTOnlyWritesTaken(t *testing.T) {
	r := newRig(t, smallCfg())
	arrA := words(r.sp, 4, "A", 1024)
	ac := r.accel
	idx, val, cond := ac.Machine().Tile(0), ac.Machine().Tile(1), ac.Machine().Tile(2)
	n := 128
	for i := 0; i < n; i++ {
		idx.SetRaw(i, uint64(i))
		val.SetRaw(i, 1)
		cond.SetRaw(i, uint64(i%4/3)) // every 4th
	}
	idx.SetSize(n)
	val.SetSize(n)
	cond.SetSize(n)
	if err := ac.Send(Instr{Op: IST, DType: U32, Base: arrA.Base(), TS1: 0, TS2: 1, TC: 2}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	for i := 0; i < n; i++ {
		want := uint64(0)
		if i%4 == 3 {
			want = 1
		}
		if got := arrA.Get(i); got != want {
			t.Fatalf("A[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestAccelSPDPortTiming(t *testing.T) {
	r := newRig(t, smallCfg())
	ac := r.accel
	spd := ac.SPDPort()
	lo, hi := ac.SPDRange()
	if hi <= lo {
		t.Fatal("empty SPD range")
	}
	var doneAt sim.Cycle
	fired := false
	r.eng.After(1, func(now sim.Cycle) {
		// Port limit: SPDPorts accesses per cycle.
		for i := 0; i < 4; i++ {
			if !spd.Access(now, lo+memspace.PAddr(i*8), cache.Load, func(n sim.Cycle) {
				doneAt = n
				fired = true
			}) {
				t.Error("access within port budget rejected")
			}
		}
		if spd.Access(now, lo, cache.Load, nil) {
			t.Error("5th access in one cycle accepted (4 ports)")
		}
	})
	r.run(t)
	if !fired {
		t.Fatal("SPD access never completed")
	}
	if doneAt < 1+r.accel.cfg.SPDLatency {
		t.Fatalf("SPD done at %d, want >= %d", doneAt, 1+r.accel.cfg.SPDLatency)
	}
}

func TestRouterRoutes(t *testing.T) {
	r := newRig(t, smallCfg())
	router := NewRouter(r.accel, r.hier.L1[0])
	arr := words(r.sp, 4, "A", 64)
	memPA := r.sp.Translate(arr.Base())
	lo, hi := r.accel.SPDRange()
	if memPA >= lo && memPA < hi {
		t.Fatal("test array PA unexpectedly inside SPD range")
	}
	done := 0
	r.eng.After(1, func(now sim.Cycle) {
		if !router.Access(now, lo, cache.Load, func(sim.Cycle) { done++ }) {
			t.Error("SPD route rejected")
		}
		if !router.Access(now, memPA, cache.Load, func(sim.Cycle) { done++ }) {
			t.Error("cache route rejected")
		}
	})
	r.run(t)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if r.st.Get("dx100.spd.accesses") != 1 {
		t.Fatalf("spd accesses = %v", r.st.Get("dx100.spd.accesses"))
	}
	if r.st.Get("l1d.accesses") != 1 {
		t.Fatalf("l1 accesses = %v", r.st.Get("l1d.accesses"))
	}
	// The functional path takes the same route: a scratchpad touch has
	// no cache state to warm, and a memory touch reaches the L1.
	router.Touch(lo, cache.Load)
	router.Touch(memPA, cache.Load)
	if r.st.Get("dx100.spd.accesses") != 1 || r.st.Get("l1d.accesses") != 2 {
		t.Fatalf("after touches: spd accesses %v, l1 accesses %v; want 1, 2",
			r.st.Get("dx100.spd.accesses"), r.st.Get("l1d.accesses"))
	}
}

func TestAccelHBitRoutesToLLC(t *testing.T) {
	r := newRig(t, smallCfg())
	arrA := words(r.sp, 4, "A", 4096)
	// Warm the LLC with A's lines.
	warmed := 0
	toWarm := 4096 * 4 / memspace.LineSize
	r.eng.After(1, func(now sim.Cycle) {
		var warm func(now sim.Cycle, i int)
		warm = func(now sim.Cycle, i int) {
			if i >= toWarm {
				return
			}
			pa := r.sp.Translate(arrA.Base()) + memspace.PAddr(i*memspace.LineSize)
			if r.hier.LLC.Access(now, pa, cache.Load, func(n sim.Cycle) {
				warmed++
				warm(n, i+1)
			}) {
				return
			}
			r.eng.After(1, func(n sim.Cycle) { warm(n, i) })
		}
		warm(now, 0)
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warmed != toWarm {
		t.Fatalf("warmed %d of %d", warmed, toWarm)
	}
	ac := r.accel
	idx := ac.Machine().Tile(0)
	n := 256
	for i := 0; i < n; i++ {
		idx.SetRaw(i, uint64(i*16%4096))
	}
	idx.SetSize(n)
	if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: 1, TS1: 0, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if r.st.Get("dx100.req.llc") == 0 {
		t.Fatal("no requests routed via the LLC despite warm lines")
	}
	if r.st.Get("dx100.snoop_hits") == 0 {
		t.Fatal("snoop never hit")
	}
}

func TestRegionDirectoryTransfers(t *testing.T) {
	d := NewRegionDirectory()
	if lat := d.Acquire(0x200000, 0); lat != 0 {
		t.Fatalf("first acquire latency %d", lat)
	}
	if lat := d.Acquire(0x200000, 0); lat != 0 {
		t.Fatalf("re-acquire latency %d", lat)
	}
	if lat := d.Acquire(0x200000, 1); lat == 0 {
		t.Fatal("ownership transfer should cost latency")
	}
	if d.Transfers != 1 {
		t.Fatalf("transfers = %d", d.Transfers)
	}
}

func TestAccelRangeFuserTiming(t *testing.T) {
	r := newRig(t, smallCfg())
	ac := r.accel
	lo, hi := ac.Machine().Tile(0), ac.Machine().Tile(1)
	n := 64
	for i := 0; i < n; i++ {
		lo.SetRaw(i, uint64(i*4))
		hi.SetRaw(i, uint64(i*4+3))
	}
	lo.SetSize(n)
	hi.SetSize(n)
	ac.SetReg(0, 1)
	if err := ac.Send(Instr{Op: RNG, TD: 2, TD2: 3, TS1: 0, TS2: 1, RS1: 0, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if got := ac.Machine().Tile(2).Size(); got != n*3 {
		t.Fatalf("fused size = %d, want %d", got, n*3)
	}
}

func TestAccelWAWBlocksDispatch(t *testing.T) {
	// Two SLDs into the same tile must serialize (scoreboard, §3.5).
	r := newRig(t, smallCfg())
	arr := words(r.sp, 4, "A", 4096)
	ac := r.accel
	ac.SetReg(0, 0)
	ac.SetReg(1, 1024)
	ac.SetReg(2, 1)
	in := Instr{Op: SLD, DType: U32, Base: arr.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile}
	if err := ac.Send(in); err != nil {
		t.Fatal(err)
	}
	if err := ac.Send(in); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if got := r.st.Get("dx100.retire.SLD"); got != 2 {
		t.Fatalf("retired SLDs = %v", got)
	}
}

// TestFunctionalDrainMatchesTimed runs one gather-then-scatter program
// on two accelerators, one timed to completion and one drained
// functionally, with the registers clobbered after each send. Both
// must leave the same tiles, the same scattered memory, every tile
// ready again, and the same dispatch and retire counts.
func TestFunctionalDrainMatchesTimed(t *testing.T) {
	const n = 512
	program := func(r *rig) memspace.Words {
		arrA := words(r.sp, 4, "A", 1<<14)
		arrB := words(r.sp, 4, "B", n)
		arrC := words(r.sp, 4, "C", 1<<14)
		for i := 0; i < 1<<14; i++ {
			arrA.Set(i, uint64(i*3+1))
		}
		perm := rand.New(rand.NewSource(5)).Perm(1 << 14)
		for i := 0; i < n; i++ {
			arrB.Set(i, uint64(perm[i]))
		}
		ac := r.accel
		for _, a := range []memspace.Words{arrA, arrB, arrC} {
			ac.TLB().Preload(r.sp.RegionOf(a.Base()))
		}
		for _, in := range []Instr{
			{Op: SLD, DType: U32, Base: arrB.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile},
			{Op: ILD, DType: U32, Base: arrA.Base(), TD: 1, TS1: 0, TC: NoTile},
			{Op: IST, DType: U32, Base: arrC.Base(), TS1: 0, TS2: 1, TC: NoTile},
		} {
			ac.SetReg(0, 0)
			ac.SetReg(1, n)
			ac.SetReg(2, 1)
			if err := ac.Send(in); err != nil {
				t.Fatal(err)
			}
			ac.SetReg(1, 1) // the snapshot taken at send must win
		}
		return arrC
	}
	timed, functional := newRig(t, smallCfg()), newRig(t, smallCfg())
	timedC, funcC := program(timed), program(functional)
	timed.run(t)
	if got := functional.accel.FunctionalDrain(); got != 3 || !functional.accel.Idle() {
		t.Fatalf("drained %d instructions, idle %v; want 3, true", got, functional.accel.Idle())
	}
	for i := 0; i < 1<<14; i++ {
		if timedC.Get(i) != funcC.Get(i) {
			t.Fatalf("C[%d]: timed %d, functional %d", i, timedC.Get(i), funcC.Get(i))
		}
	}
	for _, tile := range []uint8{0, 1} {
		tt, ft := timed.accel.Machine().Tile(tile), functional.accel.Machine().Tile(tile)
		if tt.Size() != n || ft.Size() != n {
			t.Fatalf("tile %d sizes: timed %d, functional %d; want %d", tile, tt.Size(), ft.Size(), n)
		}
		for i := 0; i < n; i++ {
			if tt.Raw(i) != ft.Raw(i) {
				t.Fatalf("tile %d[%d]: timed %d, functional %d", tile, i, tt.Raw(i), ft.Raw(i))
			}
		}
	}
	if functional.accel.TilesBusy() != 0 || timed.accel.TilesBusy() != 0 {
		t.Error("a tile stayed busy after its instructions retired")
	}
	if timed.accel.RetiredInstrs() != functional.accel.RetiredInstrs() {
		t.Errorf("retired: timed %d, functional %d", timed.accel.RetiredInstrs(), functional.accel.RetiredInstrs())
	}
	for _, op := range []Opcode{SLD, ILD, IST} {
		for _, what := range []string{"dispatch.", "retire."} {
			name := "dx100." + what + op.String()
			if timed.st.Get(name) != 1 || functional.st.Get(name) != 1 {
				t.Errorf("%s: timed %v, functional %v; want 1", name, timed.st.Get(name), functional.st.Get(name))
			}
		}
	}
}
