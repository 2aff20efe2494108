package dram

import (
	"math/rand"
	"testing"

	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// Property tests: drive the memory system with randomized request
// streams and check the JEDEC protocol invariants directly on the
// emitted command trace, rather than trusting the scheduler's own
// bookkeeping — tRP and tRCD per bank, tRAS before precharge, tRTP
// after a read and tWR after a write before precharge, tCCD_L within a
// bank group vs tCCD_S across, at most four ACTs in any tFAW window,
// and a request buffer that never exceeds its capacity. The checker
// consumes the obs trace sink — the same event stream -trace files and
// the golden-trace test are built from — so the tests also pin the
// sink's coordinate encoding.

// coordOf rebuilds the DRAM coordinates from a command event's
// positional args (see obs.EvDRAMAct's schema).
func coordOf(e obs.Event) Coord {
	return Coord{
		Channel:   int(e.Args[0]),
		Rank:      int(e.Args[1]),
		BankGroup: int(e.Args[2]),
		Bank:      int(e.Args[3]),
		Row:       int(e.Args[4]),
	}
}

// dcOf returns the DRAM cycle a command event issued at.
func dcOf(e obs.Event) uint64 {
	if e.Kind == obs.EvDRAMRefresh {
		return uint64(e.Args[1])
	}
	return uint64(e.Args[5])
}

// newDRAMSink returns a sink large enough to hold every command of a
// property-test stream without ring overwrites.
func newDRAMSink() *obs.Sink {
	s := obs.NewSink(1 << 18)
	s.SetMask(obs.MaskDRAM)
	return s
}

// driveRandom pushes nReqs random line requests through a fresh
// System, submitting random-size bursts as buffer space allows, and
// returns the resulting command trace.
func driveRandom(t *testing.T, p Params, seed int64, nReqs int) []obs.Event {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	stats := sim.NewStats()
	sys := NewSystem(eng, p, stats, "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(seed))
	remaining, inflight := nReqs, 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for burst := rng.Intn(4); burst > 0 && remaining > 0; burst-- {
			addr := memspace.LineAddr(memspace.PAddr(rng.Int63n(1 << 26)))
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			r := &Request{Addr: addr, Kind: kind, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
			if q := sys.QueueLen(addr); q > p.RequestBuffer {
				t.Fatalf("request buffer holds %d entries, capacity %d", q, p.RequestBuffer)
			}
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || inflight != 0 {
		t.Fatalf("stream not drained: %d unsubmitted, %d in flight", remaining, inflight)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("trace ring overwrote %d events; grow newDRAMSink", sink.Dropped())
	}
	return sink.Events()
}

// checkProtocol walks a command trace asserting every timing
// invariant; it returns the number of column commands seen.
func checkProtocol(t *testing.T, p Params, trace []obs.Event) (casCount int) {
	t.Helper()
	type bankKey struct{ ch, slice int }
	type bgKey struct{ ch, rank, bg int }
	lastACT := map[bankKey]uint64{}
	lastPRE := map[bankKey]uint64{}
	lastRD := map[bankKey]uint64{}
	lastWREnd := map[bankKey]uint64{} // write burst completion: issue + CWL + tBURST
	lastCASAny := map[int]uint64{}
	lastCASBG := map[bgKey]uint64{}
	seenACT := map[bankKey]bool{}
	seenPRE := map[bankKey]bool{}
	seenRD := map[bankKey]bool{}
	seenWR := map[bankKey]bool{}
	seenCASAny := map[int]bool{}
	seenCASBG := map[bgKey]bool{}
	actTimes := map[int][]uint64{}
	for i, e := range trace {
		c, dc := coordOf(e), dcOf(e)
		bk := bankKey{c.Channel, c.Slice(&p)}
		switch e.Kind {
		case obs.EvDRAMAct:
			if seenPRE[bk] && dc < lastPRE[bk]+uint64(p.TRP) {
				t.Errorf("cmd %d: ACT ch%d slice%d at %d violates tRP=%d (PRE at %d)",
					i, bk.ch, bk.slice, dc, p.TRP, lastPRE[bk])
			}
			lastACT[bk] = dc
			seenACT[bk] = true
			actTimes[c.Channel] = append(actTimes[c.Channel], dc)
		case obs.EvDRAMPre:
			if !seenACT[bk] {
				t.Errorf("cmd %d: PRE ch%d slice%d with no prior ACT", i, bk.ch, bk.slice)
				continue
			}
			if dc < lastACT[bk]+uint64(p.TRAS) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tRAS=%d (ACT at %d)",
					i, bk.ch, bk.slice, dc, p.TRAS, lastACT[bk])
			}
			if seenRD[bk] && dc < lastRD[bk]+uint64(p.TRTP) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tRTP=%d (RD at %d)",
					i, bk.ch, bk.slice, dc, p.TRTP, lastRD[bk])
			}
			if seenWR[bk] && dc < lastWREnd[bk]+uint64(p.TWR) {
				t.Errorf("cmd %d: PRE ch%d slice%d at %d violates tWR=%d (WR burst ended %d)",
					i, bk.ch, bk.slice, dc, p.TWR, lastWREnd[bk])
			}
			lastPRE[bk] = dc
			seenPRE[bk] = true
		case obs.EvDRAMRead, obs.EvDRAMWrite:
			casCount++
			if !seenACT[bk] {
				t.Errorf("cmd %d: CAS ch%d slice%d with no prior ACT", i, bk.ch, bk.slice)
				continue
			}
			if dc < lastACT[bk]+uint64(p.TRCD) {
				t.Errorf("cmd %d: CAS ch%d slice%d at %d violates tRCD=%d (ACT at %d)",
					i, bk.ch, bk.slice, dc, p.TRCD, lastACT[bk])
			}
			if seenCASAny[c.Channel] && dc < lastCASAny[c.Channel]+uint64(p.TCCDS) {
				t.Errorf("cmd %d: CAS ch%d at %d violates tCCD_S=%d (CAS at %d)",
					i, c.Channel, dc, p.TCCDS, lastCASAny[c.Channel])
			}
			gk := bgKey{c.Channel, c.Rank, c.BankGroup}
			if seenCASBG[gk] && dc < lastCASBG[gk]+uint64(p.TCCDL) {
				t.Errorf("cmd %d: CAS ch%d bg%d at %d violates tCCD_L=%d (CAS at %d)",
					i, c.Channel, gk.bg, dc, p.TCCDL, lastCASBG[gk])
			}
			if e.Kind == obs.EvDRAMRead {
				lastRD[bk] = dc
				seenRD[bk] = true
			} else {
				lastWREnd[bk] = dc + uint64(p.CWL) + uint64(p.TBURST)
				seenWR[bk] = true
			}
			lastCASAny[c.Channel] = dc
			seenCASAny[c.Channel] = true
			lastCASBG[gk] = dc
			seenCASBG[gk] = true
		case obs.EvDRAMRefresh:
			// All-bank refresh only tightens subsequent constraints;
			// nothing to check here.
		}
	}
	for ch, acts := range actTimes {
		for i := 4; i < len(acts); i++ {
			if acts[i] < acts[i-4]+uint64(p.TFAW) {
				t.Errorf("ch%d: 5 ACTs within tFAW=%d window: %v", ch, p.TFAW, acts[i-4:i+1])
			}
		}
	}
	return casCount
}

func TestProtocolInvariantsRandomStreams(t *testing.T) {
	p := DDR4_3200()
	for seed := int64(1); seed <= 5; seed++ {
		const n = 1200
		trace := driveRandom(t, p, seed, n)
		if cas := checkProtocol(t, p, trace); cas != n {
			t.Fatalf("seed %d: %d column commands for %d requests", seed, cas, n)
		}
	}
}

func TestProtocolInvariantsUnderRefreshPressure(t *testing.T) {
	// Shrink the refresh interval so many refreshes land inside the
	// stream, exercising the refresh/ACT/CAS interleaving.
	p := DDR4_3200()
	p.TREFI = 500
	p.TRFC = 100
	trace := driveRandom(t, p, 42, 800)
	refreshes := 0
	for _, e := range trace {
		if e.Kind == obs.EvDRAMRefresh {
			refreshes++
		}
	}
	if refreshes == 0 {
		t.Fatal("no refreshes fired despite tiny tREFI")
	}
	if cas := checkProtocol(t, p, trace); cas != 800 {
		t.Fatalf("%d column commands for 800 requests", cas)
	}
}

func TestProtocolInvariantsSingleBankHammer(t *testing.T) {
	// Confine all traffic to one channel so the four-activate window
	// and the per-bank PRE/ACT cycle are stressed as hard as possible:
	// every request misses its row, forcing a PRE+ACT per access.
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(9))
	m := sys.Mapper()
	remaining, inflight := 600, 0
	row := 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for remaining > 0 {
			// A fresh row on a random bank every request: all conflicts.
			row++
			c := Coord{
				Channel:   0,
				BankGroup: rng.Intn(p.BankGroups),
				Bank:      rng.Intn(p.Banks),
				Row:       row % 256,
			}
			r := &Request{Addr: m.Unmap(c), Kind: Read, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	acts := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.EvDRAMAct {
			acts++
		}
	}
	if acts < 500 {
		t.Fatalf("hammer produced only %d ACTs; rows should conflict", acts)
	}
	checkProtocol(t, p, sink.Events())
}

func TestProtocolInvariantsWriteHeavy(t *testing.T) {
	// A write-dominated stream on one channel keeps banks in the
	// write-recovery window, so the tWR check actually bites.
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	sink := newDRAMSink()
	sys.AttachTrace(sink)
	rng := rand.New(rand.NewSource(7))
	m := sys.Mapper()
	remaining, inflight := 600, 0
	row := 0
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for remaining > 0 {
			row++
			c := Coord{
				Channel:   0,
				BankGroup: rng.Intn(p.BankGroups),
				Bank:      rng.Intn(p.Banks),
				Row:       row % 64,
			}
			kind := Write
			if rng.Intn(4) == 0 {
				kind = Read
			}
			r := &Request{Addr: m.Unmap(c), Kind: kind, OnDone: func(sim.Cycle) { inflight-- }}
			if !sys.Submit(r) {
				break
			}
			inflight++
			remaining--
		}
		return remaining > 0 || inflight > 0
	}))
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	trace := sink.Events()
	writes, pres := 0, 0
	for _, e := range trace {
		switch e.Kind {
		case obs.EvDRAMWrite:
			writes++
		case obs.EvDRAMPre:
			pres++
		}
	}
	if writes < 300 || pres < 100 {
		t.Fatalf("stream too tame to exercise tWR: %d writes, %d PREs", writes, pres)
	}
	checkProtocol(t, p, trace)
}

func TestRequestBufferNeverExceedsCapacity(t *testing.T) {
	p := DDR4_3200()
	p.Channels = 1
	eng := sim.NewEngine()
	sys := NewSystem(eng, p, sim.NewStats(), "dram.")
	m := sys.Mapper()
	addr := func(row int) memspace.PAddr {
		return m.Unmap(Coord{Row: row})
	}
	for i := 0; i < p.RequestBuffer; i++ {
		if !sys.Submit(&Request{Addr: addr(i), Kind: Read}) {
			t.Fatalf("submit %d rejected below capacity %d", i, p.RequestBuffer)
		}
	}
	if sys.QueueLen(addr(0)) != p.RequestBuffer {
		t.Fatalf("queue length %d, want %d", sys.QueueLen(addr(0)), p.RequestBuffer)
	}
	if sys.CanAccept(addr(0)) {
		t.Fatal("CanAccept true on a full buffer")
	}
	for i := 0; i < 8; i++ {
		if sys.Submit(&Request{Addr: addr(100 + i), Kind: Read}) {
			t.Fatal("submit accepted beyond the request buffer capacity")
		}
	}
	// Draining must reopen the buffer.
	done := 0
	for sys.QueueLen(addr(0)) == p.RequestBuffer {
		eng.Step()
		done++
		if done > 100_000 {
			t.Fatal("buffer never drained")
		}
	}
	if !sys.CanAccept(addr(0)) {
		t.Fatal("CanAccept false after drain")
	}
	if !sys.Submit(&Request{Addr: addr(200), Kind: Read}) {
		t.Fatal("submit rejected after drain")
	}
}
