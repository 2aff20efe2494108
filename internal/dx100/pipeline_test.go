package dx100

import (
	"math/rand"
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestIndirectPingPongOverlap checks that two back-to-back ILDs on
// independent tiles overlap: the fill of the second proceeds while the
// first drains (two Row Tables, §3.5).
func TestIndirectPingPongOverlap(t *testing.T) {
	cfg := smallCfg()
	run := func(serialize bool) sim.Cycle {
		r := newRig(t, cfg)
		arrA := words(r.sp, 4, "A", 1<<16)
		ac := r.accel
		rng := rand.New(rand.NewSource(5))
		for _, tile := range []uint8{0, 2} {
			idx := ac.Machine().Tile(tile)
			for i := 0; i < 1024; i++ {
				idx.SetRaw(i, uint64(rng.Intn(1<<16)))
			}
			idx.SetSize(1024)
		}
		send := func(src, dst uint8) {
			if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: dst, TS1: src, TC: NoTile}); err != nil {
				t.Fatal(err)
			}
		}
		send(0, 1)
		if serialize {
			if _, err := r.eng.Run(nil); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		send(2, 3)
		return r.run(t)
	}
	pipelined := run(false)
	serial := run(true)
	if pipelined+50 >= serial {
		t.Fatalf("pipelined %d vs serialized %d: ping-pong row tables should overlap", pipelined, serial)
	}
}

// TestIndirectQueueDepthTwo verifies at most two indirect instructions
// stage concurrently and a third waits for a free Row Table.
func TestIndirectQueueDepthTwo(t *testing.T) {
	r := newRig(t, smallCfg())
	arrA := words(r.sp, 4, "A", 1<<16)
	ac := r.accel
	for tile := uint8(0); tile < 3; tile++ {
		idx := ac.Machine().Tile(tile * 2)
		for i := 0; i < 512; i++ {
			idx.SetRaw(i, uint64(i*37%(1<<16)))
		}
		idx.SetSize(512)
		if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: tile*2 + 1, TS1: tile * 2, TC: NoTile}); err != nil {
			t.Fatal(err)
		}
	}
	// Step a little and check the staging invariant.
	maxDepth := 0
	for i := 0; i < 2000; i++ {
		r.eng.Step()
		if d := len(r.accel.indQ); d > maxDepth {
			maxDepth = d
		}
		if len(r.accel.indQ) > 2 {
			t.Fatalf("indirect queue depth %d > 2", len(r.accel.indQ))
		}
	}
	if maxDepth < 2 {
		t.Fatalf("max staged depth %d; expected the second ILD to stage early", maxDepth)
	}
	r.run(t)
	if got := r.st.Get("dx100.retire.ILD"); got != 3 {
		t.Fatalf("retired = %v", got)
	}
}

// TestForceLLCRouteAblation checks the §3.6 design-alternative knob:
// with ForceLLCRoute every indirect request goes through the cache
// interface.
func TestForceLLCRouteAblation(t *testing.T) {
	cfg := smallCfg()
	cfg.ForceLLCRoute = true
	r := newRig(t, cfg)
	arrA := words(r.sp, 4, "A", 1<<14)
	ac := r.accel
	idx := ac.Machine().Tile(0)
	for i := 0; i < 512; i++ {
		idx.SetRaw(i, uint64(i*13%(1<<14)))
	}
	idx.SetSize(512)
	if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: 1, TS1: 0, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if r.st.Get("dx100.req.direct") != 0 {
		t.Fatalf("direct requests issued despite ForceLLCRoute: %v", r.st.Get("dx100.req.direct"))
	}
	if r.st.Get("dx100.req.llc") == 0 {
		t.Fatal("no LLC-routed requests")
	}
}

// TestRegisterSnapshotAtSend: a register overwritten after Send must
// not affect the queued instruction (the send captures its operands).
func TestRegisterSnapshotAtSend(t *testing.T) {
	r := newRig(t, smallCfg())
	arr := words(r.sp, 8, "A", 4096)
	for i := 0; i < 4096; i++ {
		arr.Set(i, uint64(i+1))
	}
	ac := r.accel
	ac.SetReg(0, 100) // start
	ac.SetReg(1, 16)  // count
	ac.SetReg(2, 1)
	if err := ac.Send(Instr{Op: SLD, DType: U64, Base: arr.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	// Clobber the registers for a hypothetical next tile.
	ac.SetReg(0, 999999)
	ac.SetReg(1, 1)
	r.run(t)
	tile := ac.Machine().Tile(0)
	if tile.Size() != 16 {
		t.Fatalf("size = %d, want the snapshotted count 16", tile.Size())
	}
	if tile.Raw(0) != 101 {
		t.Fatalf("tile[0] = %d, want A[100] = 101", tile.Raw(0))
	}
}

// TestTLBEviction exercises the FIFO replacement of the accelerator
// TLB.
func TestTLBEviction(t *testing.T) {
	sp := memspace.New()
	regions := make([]memspace.Region, 6)
	for i := range regions {
		regions[i] = sp.Alloc("r", memspace.HugePageSize)
	}
	tlb := NewTLB(sp, 4)
	for _, r := range regions {
		tlb.Preload(r)
	}
	// Only the last 4 pages remain.
	if _, hit := tlb.Translate(regions[0].Base); hit {
		t.Fatal("evicted entry still hit")
	}
	if _, hit := tlb.Translate(regions[5].Base); !hit {
		t.Fatal("recent entry missed")
	}
	if tlb.Misses == 0 {
		t.Fatal("no TLB miss counted")
	}
	// A missed translation fills the entry.
	if _, hit := tlb.Translate(regions[0].Base); !hit {
		t.Fatal("walk did not fill the TLB")
	}
}

// TestIRMWConcurrentWithILDDifferentTiles: the scoreboard must allow
// an IRMW and an ILD on disjoint tiles to stage together, and both
// must produce correct results.
func TestIRMWConcurrentWithILDDifferentTiles(t *testing.T) {
	r := newRig(t, smallCfg())
	arrA := words(r.sp, 8, "A", 1024)
	arrB := words(r.sp, 4, "B", 1<<14)
	for i := 0; i < 1<<14; i++ {
		arrB.Set(i, uint64(i)^0x5A)
	}
	ac := r.accel
	idx1, val1 := ac.Machine().Tile(0), ac.Machine().Tile(1)
	for i := 0; i < 256; i++ {
		idx1.SetRaw(i, uint64(i%64))
		val1.SetRaw(i, 1)
	}
	idx1.SetSize(256)
	val1.SetSize(256)
	idx2 := ac.Machine().Tile(2)
	for i := 0; i < 256; i++ {
		idx2.SetRaw(i, uint64(i*53%(1<<14)))
	}
	idx2.SetSize(256)
	if err := ac.Send(Instr{Op: IRMW, DType: U64, ALU: OpAdd, Base: arrA.Base(), TS1: 0, TS2: 1, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrB.Base(), TD: 3, TS1: 2, TC: NoTile}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	for k := 0; k < 64; k++ {
		if got := arrA.Get(k); got != 4 {
			t.Fatalf("A[%d] = %d, want 4", k, got)
		}
	}
	for i := 0; i < 256; i++ {
		want := uint64(arrB.Get(i * 53 % (1 << 14)))
		if got := ac.Machine().Tile(3).Raw(i); got != want {
			t.Fatalf("gather[%d] = %d, want %d", i, got, want)
		}
	}
}
