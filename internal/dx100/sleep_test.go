package dx100

import (
	"math/rand"
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// TestHeldColumnSleepsOnFullChannel pins the request stage's
// back-pressure hint. A DRAM-routed column that a full channel refused
// can issue only after that channel issues a command, so the stage
// gives no wake; an LLC-routed one keeps retrying every cycle, and the
// DRAM-routed one wakes on the next cycle once the channel has room.
func TestHeldColumnSleepsOnFullChannel(t *testing.T) {
	r := newRig(t, smallCfg())
	a := r.accel
	p := r.mem.Params()
	rt := a.rts[0]
	c := dram.Coord{Row: 5, Column: 3}
	if !rt.Insert(c, r.mem.Mapper().Unmap(c), nil) {
		t.Fatal("insert into an empty Row Table failed")
	}
	req, ok := rt.NextRequest()
	if !ok {
		t.Fatal("no column to request")
	}
	fl := &inflight{ins: Instr{Op: ILD}, n: 1, fill: 1, inserted: 1, draining: true, rt: rt, held: req, holding: true}
	a.indQ = []*inflight{fl}
	pa := req.Line
	for i := 0; r.mem.CanAccept(pa); i++ {
		r.mem.Submit(&dram.Request{Addr: r.mem.Mapper().Unmap(dram.Coord{Row: 100 + i}), Kind: dram.Read})
	}
	if w, _ := a.NextWake(0); w != sim.NeverWake {
		t.Fatalf("NextWake = %d with the held column's channel full, want NeverWake", w)
	}
	fl.held.Hit = true
	if w, _ := a.NextWake(0); w != 1 {
		t.Fatalf("NextWake = %d for an LLC-routed held column, want 1", w)
	}
	fl.held.Hit = false
	// Step the DRAM alone until the channel issues a column command.
	now := sim.Cycle(0)
	for !r.mem.CanAccept(pa) {
		now += sim.Cycle(p.ClkDiv)
		r.mem.Tick(now)
		if now > 10_000 {
			t.Fatal("channel never freed a slot")
		}
	}
	if w, _ := a.NextWake(now); w != now+1 {
		t.Fatalf("NextWake = %d once the channel has room, want %d", w, now+1)
	}
}

// TestBlockedFillSkipMatchesStepping runs gathers through one-entry
// Row Table slices, so the fill stage blocks on full slices most of the
// time, and checks that sleeping through the blocks and counting their
// stalls in SkipCycles gives exactly the cycles and statistics of
// stepping every cycle.
func TestBlockedFillSkipMatchesStepping(t *testing.T) {
	type outcome struct {
		end    sim.Cycle
		stalls float64
		words  float64
		jumps  uint64
		stats  string
	}
	run := func(noFF bool) outcome {
		cfg := smallCfg()
		cfg.RowTable = RowTableConfig{Rows: 1, Cols: 1}
		r := newRig(t, cfg)
		r.eng.DisableFastForward = noFF
		arrA := words(r.sp, 4, "A", 1<<16)
		ac := r.accel
		ac.TLB().Preload(r.sp.RegionOf(arrA.Base()))
		rng := rand.New(rand.NewSource(11))
		for _, tile := range []uint8{0, 2} {
			idx := ac.Machine().Tile(tile)
			for i := 0; i < 1024; i++ {
				idx.SetRaw(i, uint64(rng.Intn(1<<16)))
			}
			idx.SetSize(1024)
		}
		for _, ops := range [][2]uint8{{0, 1}, {2, 3}} {
			if err := ac.Send(Instr{Op: ILD, DType: U32, Base: arrA.Base(), TD: ops[1], TS1: ops[0], TC: NoTile}); err != nil {
				t.Fatal(err)
			}
		}
		end := r.run(t)
		jumps, _ := r.eng.FastForwarded()
		return outcome{
			end: end, stalls: r.st.Get("dx100.rt.stalls"), words: r.st.Get("dx100.words"),
			jumps: jumps, stats: r.st.String(),
		}
	}
	on, off := run(false), run(true)
	if on.stalls == 0 {
		t.Fatal("no Row Table stalls: the test no longer reaches a blocked fill")
	}
	if on.jumps == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if on.end != off.end || on.stalls != off.stalls || on.words != off.words {
		t.Fatalf("fast-forward changed the run: end %d/%d, stalls %v/%v, words %v/%v",
			on.end, off.end, on.stalls, off.stalls, on.words, off.words)
	}
	if on.stats != off.stats {
		t.Fatalf("statistics differ:\n--- ff on ---\n%s\n--- ff off ---\n%s", on.stats, off.stats)
	}
}

// TestBlockedFillSleepRules pins the fill stage's wake rules on a
// hand-built block: an insert refused by a full Row Table slice sleeps,
// and each skipped cycle counts exactly the stall that a Tick's retry
// counts. A TLB miss since the block may have evicted the
// retried element's page, and a response may have freed an entry;
// either one wakes the fill on the next cycle.
func TestBlockedFillSleepRules(t *testing.T) {
	cfg := smallCfg()
	cfg.RowTable = RowTableConfig{Rows: 1, Cols: 1}
	r := newRig(t, cfg)
	a := r.accel
	arr := words(r.sp, 4, "A", 1<<20)
	other := words(r.sp, 4, "other", 1)
	a.TLB().Preload(r.sp.RegionOf(arr.Base()))
	// Two elements in the same bank but different rows: with one-row
	// slices the second insert must wait for the first column's response.
	coord := func(i int) dram.Coord {
		return a.mapper.Map(r.sp.Translate(arr.Base() + memspace.VAddr(4*i)))
	}
	p := r.mem.Params()
	second := -1
	for i := 1; i < 1<<20 && second < 0; i += 16 {
		if c := coord(i); c.GlobalBank(&p) == coord(0).GlobalBank(&p) && c.Row != coord(0).Row {
			second = i
		}
	}
	if second < 0 {
		t.Fatal("no element shares element 0's bank in another row")
	}
	idx := a.Machine().Tile(0)
	idx.SetRaw(0, 0)
	idx.SetRaw(1, uint64(second))
	idx.SetSize(2)
	fl := &inflight{ins: Instr{Op: ILD, DType: U32, Base: arr.Base(), TD: 1, TS1: 0, TC: NoTile}, n: 2, rt: a.rts[0]}
	a.indQ = []*inflight{fl}
	a.indirectFill(fl)
	if fl.fill != 1 || !fl.blocked {
		t.Fatalf("fill=%d blocked=%v, want the second insert refused", fl.fill, fl.blocked)
	}
	req, ok := fl.rt.NextRequest() // the first column is now in flight
	if !ok {
		t.Fatal("no column to request")
	}
	if w, _ := a.NextWake(0); w != sim.NeverWake {
		t.Fatalf("NextWake = %d for a blocked fill, want NeverWake", w)
	}
	stalls := fl.rt.Stalls
	a.SkipCycles(0, 11)
	if fl.rt.Stalls-stalls != 10 {
		t.Fatalf("SkipCycles over 10 cycles counted %d stalls, want 10", fl.rt.Stalls-stalls)
	}
	stalls = fl.rt.Stalls
	for now := sim.Cycle(11); now <= 20; now++ {
		a.Tick(now)
	}
	if fl.rt.Stalls-stalls != 10 || fl.fill != 1 {
		t.Fatalf("10 Ticks counted %d stalls, filled to %d; want 10, 1", fl.rt.Stalls-stalls, fl.fill)
	}
	a.TLB().Translate(other.Base()) // a miss elsewhere
	if w, _ := a.NextWake(20); w != 21 {
		t.Fatalf("NextWake = %d after a TLB miss, want 21", w)
	}
	a.Tick(21) // the retry hits again and re-blocks
	if w, _ := a.NextWake(21); w != sim.NeverWake {
		t.Fatalf("NextWake = %d once the retry blocks again, want NeverWake", w)
	}
	a.respond(fl, req)
	if w, _ := a.NextWake(21); w != 22 {
		t.Fatalf("NextWake = %d after a response freed the entry, want 22", w)
	}
}
