package dram

import (
	"testing"
	"testing/quick"

	"dx100/internal/memspace"
	"dx100/internal/sim"
)

func TestMapperRoundTripProperty(t *testing.T) {
	m := NewMapper(DDR4_3200())
	f := func(raw uint64) bool {
		pa := memspace.PAddr(raw &^ (memspace.LineSize - 1) & (1<<40 - 1))
		c := m.Map(pa)
		return m.Unmap(c) == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapperInterleaving(t *testing.T) {
	p := DDR4_3200()
	m := NewMapper(p)
	// Consecutive lines alternate channels.
	c0 := m.Map(0)
	c1 := m.Map(memspace.LineSize)
	if c0.Channel == c1.Channel {
		t.Fatal("consecutive lines should alternate channels")
	}
	// Lines 0 and 2 are in the same channel but different bank groups.
	c2 := m.Map(2 * memspace.LineSize)
	if c2.Channel != c0.Channel || c2.BankGroup == c0.BankGroup {
		t.Fatalf("line 2: ch=%d bg=%d, want ch=%d and bg != %d", c2.Channel, c2.BankGroup, c0.Channel, c0.BankGroup)
	}
	// Slice index is within range.
	if s := c0.Slice(&p); s < 0 || s >= p.BanksPerChannel() {
		t.Fatalf("slice %d out of range", s)
	}
}

func TestMapperFieldRanges(t *testing.T) {
	p := DDR4_3200()
	m := NewMapper(p)
	for a := uint64(0); a < 1<<22; a += 64 * 97 {
		c := m.Map(memspace.PAddr(a))
		if c.Channel >= p.Channels || c.BankGroup >= p.BankGroups || c.Bank >= p.Banks ||
			c.Rank >= p.Ranks || c.Column >= p.LinesPerRow() {
			t.Fatalf("coord out of range: %+v", c)
		}
	}
}

// runReads submits reads for the given addresses as buffer space frees
// up, runs to completion, and returns (cycles, stats, system).
func runReads(t *testing.T, addrs []memspace.PAddr) (sim.Cycle, *sim.Stats, *System) {
	t.Helper()
	eng := sim.NewEngine()
	eng.MaxCycles = 50_000_000
	st := sim.NewStats()
	sys := NewSystem(eng, DDR4_3200(), st, "dram.")
	done := 0
	next := 0
	// A feeder ticker keeps the request buffers topped up.
	eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
		for next < len(addrs) {
			r := &Request{Addr: addrs[next], Kind: Read, OnDone: func(sim.Cycle) { done++ }}
			if !sys.Submit(r) {
				break
			}
			next++
		}
		return done != len(addrs)
	}))
	end, err := eng.Run(func() bool { return done == len(addrs) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return end, st, sys
}

func TestSingleReadLatency(t *testing.T) {
	end, st, _ := runReads(t, []memspace.PAddr{0})
	p := DDR4_3200()
	// Closed-row read: tRCD + CL + tBURST DRAM cycles minimum, x2 for CPU cycles.
	minCPU := sim.Cycle((p.TRCD + p.CL + p.TBURST) * p.ClkDiv)
	if end < minCPU {
		t.Fatalf("completed at %d CPU cycles, faster than DRAM timing allows (%d)", end, minCPU)
	}
	if end > minCPU+20 {
		t.Fatalf("completed at %d, expected close to %d", end, minCPU)
	}
	if st.Get("dram.rowmisses") != 1 || st.Get("dram.rowhits") != 0 {
		t.Fatalf("classification wrong: %v", st)
	}
}

func TestRowHitClassification(t *testing.T) {
	// Four reads to the same row: 1 miss + 3 hits.
	m := NewMapper(DDR4_3200())
	addrs := []memspace.PAddr{
		m.Unmap(Coord{Row: 5, Column: 0}),
		m.Unmap(Coord{Row: 5, Column: 8}),
		m.Unmap(Coord{Row: 5, Column: 16}),
		m.Unmap(Coord{Row: 5, Column: 24}),
	}
	for _, a := range addrs {
		if c := m.Map(a); c.Row != 5 || c.Channel != 0 || c.Bank != 0 || c.BankGroup != 0 {
			t.Fatalf("address construction wrong: %+v", c)
		}
	}
	_, st, sys := runReads(t, addrs)
	if st.Get("dram.rowhits") != 3 || st.Get("dram.rowmisses") != 1 {
		t.Fatalf("hits=%v misses=%v, want 3/1", st.Get("dram.rowhits"), st.Get("dram.rowmisses"))
	}
	if r := sys.RowBufferHitRate(); r != 0.75 {
		t.Fatalf("RBH = %v, want 0.75", r)
	}
}

func TestRowConflictClassification(t *testing.T) {
	m := NewMapper(DDR4_3200())
	// Two reads to different rows of the same bank: second is a conflict.
	a0 := m.Unmap(Coord{Row: 1})
	a1 := m.Unmap(Coord{Row: 2})
	_, st, _ := runReads(t, []memspace.PAddr{a0, a1})
	if st.Get("dram.rowconflicts") != 1 {
		t.Fatalf("conflicts = %v, want 1", st.Get("dram.rowconflicts"))
	}
}

func TestStreamingBandwidthHigh(t *testing.T) {
	// A long sequential stream should reach high bus utilization:
	// channel/BG interleaving keeps the bus busy.
	n := 4096
	addrs := make([]memspace.PAddr, n)
	for i := range addrs {
		addrs[i] = memspace.PAddr(i * memspace.LineSize)
	}
	_, _, sys := runReads(t, addrs)
	if u := sys.BandwidthUtilization(); u < 0.75 {
		t.Fatalf("streaming utilization = %.2f, want > 0.75", u)
	}
}

func TestRandomRowsBandwidthLow(t *testing.T) {
	// Accesses that each open a fresh row in the same bank are bounded
	// by tRP+tRCD, far below peak.
	m := NewMapper(DDR4_3200())
	n := 512
	addrs := make([]memspace.PAddr, n)
	for i := range addrs {
		addrs[i] = m.Unmap(Coord{Row: i + 1})
	}
	_, _, sys := runReads(t, addrs)
	if u := sys.BandwidthUtilization(); u > 0.25 {
		t.Fatalf("same-bank row-conflict utilization = %.2f, want < 0.25", u)
	}
}

func TestBankGroupInterleavingFaster(t *testing.T) {
	m := NewMapper(DDR4_3200())
	n := 1024
	// Same bank group, same row, consecutive columns: tCCD_L bound.
	same := make([]memspace.PAddr, n)
	for i := range same {
		same[i] = m.Unmap(Coord{Row: 1, Column: i % 128})
	}
	endSame, _, _ := runReads(t, same)
	// Interleaved across bank groups: tCCD_S bound.
	inter := make([]memspace.PAddr, n)
	for i := range inter {
		inter[i] = m.Unmap(Coord{Row: 1, BankGroup: i % 4, Column: (i / 4) % 128})
	}
	endInter, _, _ := runReads(t, inter)
	if float64(endSame) < 1.5*float64(endInter) {
		t.Fatalf("same-BG %d vs interleaved %d cycles: want >= 1.5x gap (tCCD_L vs tCCD_S)", endSame, endInter)
	}
}

func TestChannelInterleavingFaster(t *testing.T) {
	m := NewMapper(DDR4_3200())
	n := 1024
	one := make([]memspace.PAddr, n)
	two := make([]memspace.PAddr, n)
	for i := range one {
		// Single channel, interleaved bank groups.
		one[i] = m.Unmap(Coord{Channel: 0, BankGroup: i % 4, Row: 1, Column: (i / 4) % 128})
		// Both channels.
		two[i] = m.Unmap(Coord{Channel: i % 2, BankGroup: (i / 2) % 4, Row: 1, Column: (i / 8) % 128})
	}
	endOne, _, _ := runReads(t, one)
	endTwo, _, _ := runReads(t, two)
	if float64(endOne) < 1.6*float64(endTwo) {
		t.Fatalf("one-channel %d vs two-channel %d: want ~2x gap", endOne, endTwo)
	}
}

func TestSubmitBackPressure(t *testing.T) {
	eng := sim.NewEngine()
	st := sim.NewStats()
	sys := NewSystem(eng, DDR4_3200(), st, "dram.")
	p := DDR4_3200()
	// Fill channel 0's buffer.
	for i := 0; i < p.RequestBuffer; i++ {
		r := &Request{Addr: memspace.PAddr(i * 128 * memspace.LineSize), Kind: Read}
		// stride of 128 lines keeps channel 0 (bit 6 = 0).
		if c := sys.Mapper().Map(r.Addr); c.Channel != 0 {
			t.Fatalf("address %d not in channel 0", i)
		}
		if !sys.Submit(r) {
			t.Fatalf("submit %d rejected early", i)
		}
	}
	over := &Request{Addr: 0, Kind: Read}
	if sys.Submit(over) {
		t.Fatal("submit beyond buffer capacity accepted")
	}
	if sys.CanAccept(0) {
		t.Fatal("CanAccept should report false")
	}
	// Other channel unaffected.
	if !sys.CanAccept(memspace.LineSize) {
		t.Fatal("channel 1 should accept")
	}
}

func TestWritesComplete(t *testing.T) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	sys := NewSystem(eng, DDR4_3200(), st, "dram.")
	done := 0
	for i := 0; i < 16; i++ {
		r := &Request{Addr: memspace.PAddr(i * memspace.LineSize), Kind: Write, OnDone: func(sim.Cycle) { done++ }}
		if !sys.Submit(r) {
			t.Fatalf("submit %d failed", i)
		}
	}
	if _, err := eng.Run(func() bool { return done == 16 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dram.writes") != 16 {
		t.Fatalf("writes = %v", st.Get("dram.writes"))
	}
}

func TestMixedReadWriteTurnaround(t *testing.T) {
	// Alternating reads and writes to an open row must be slower than
	// pure reads due to bus turnaround.
	m := NewMapper(DDR4_3200())
	mk := func(kinds []Kind) sim.Cycle {
		eng := sim.NewEngine()
		eng.MaxCycles = 10_000_000
		st := sim.NewStats()
		sys := NewSystem(eng, DDR4_3200(), st, "dram.")
		done, next := 0, 0
		eng.Register(sim.TickerFunc(func(now sim.Cycle) bool {
			for next < len(kinds) {
				r := &Request{Addr: m.Unmap(Coord{Row: 1, Column: next % 128}), Kind: kinds[next], OnDone: func(sim.Cycle) { done++ }}
				if !sys.Submit(r) {
					break
				}
				next++
			}
			return done != len(kinds)
		}))
		end, err := eng.Run(func() bool { return done == len(kinds) })
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return end
	}
	n := 256
	pure := make([]Kind, n)
	mixed := make([]Kind, n)
	for i := range mixed {
		if i%2 == 1 {
			mixed[i] = Write
		}
	}
	endPure, endMixed := mk(pure), mk(mixed)
	if endMixed <= endPure {
		t.Fatalf("mixed (%d) should be slower than pure reads (%d)", endMixed, endPure)
	}
}

func TestOccupancyAccumulates(t *testing.T) {
	n := 256
	addrs := make([]memspace.PAddr, n)
	m := NewMapper(DDR4_3200())
	for i := range addrs {
		addrs[i] = m.Unmap(Coord{Row: i})
	}
	_, _, sys := runReads(t, addrs)
	if o := sys.Occupancy(); o <= 0 || o > 1 {
		t.Fatalf("occupancy = %v, want in (0, 1]", o)
	}
}

func TestParamsDerived(t *testing.T) {
	p := DDR4_3200()
	if p.BanksPerChannel() != 16 {
		t.Fatalf("BanksPerChannel = %d", p.BanksPerChannel())
	}
	if p.TotalBanks() != 32 {
		t.Fatalf("TotalBanks = %d", p.TotalBanks())
	}
	if p.LinesPerRow() != 128 {
		t.Fatalf("LinesPerRow = %d", p.LinesPerRow())
	}
	if p.PeakBytesPerDRAMCycle() != 16 {
		t.Fatalf("PeakBytesPerDRAMCycle = %v", p.PeakBytesPerDRAMCycle())
	}
}

func TestRefreshFires(t *testing.T) {
	// A long streaming run crosses several tREFI windows; refreshes
	// must fire and steal bandwidth.
	n := 8192
	addrs := make([]memspace.PAddr, n)
	for i := range addrs {
		addrs[i] = memspace.PAddr(i * memspace.LineSize)
	}
	_, st, sys := runReads(t, addrs)
	if st.Get("dram.refreshes") == 0 {
		t.Fatal("no refreshes over a multi-tREFI run")
	}
	// Utilization stays high but strictly below the no-refresh ideal.
	if u := sys.BandwidthUtilization(); u < 0.70 || u >= 0.99 {
		t.Fatalf("streaming utilization with refresh = %.2f", u)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	// Two same-row reads separated by more than tREFI: the second
	// must be a refresh-induced row miss, not a hit.
	p := DDR4_3200()
	eng := sim.NewEngine()
	eng.MaxCycles = 10_000_000
	st := sim.NewStats()
	sys := NewSystem(eng, p, st, "dram.")
	m := sys.Mapper()
	done := 0
	sub := func(col int) {
		r := &Request{Addr: m.Unmap(Coord{Row: 3, Column: col}), Kind: Read, OnDone: func(sim.Cycle) { done++ }}
		if !sys.Submit(r) {
			t.Fatal("submit failed")
		}
	}
	sub(0)
	if _, err := eng.Run(func() bool { return done == 1 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Wait past a refresh interval.
	target := eng.Now() + sim.Cycle(2*p.TREFI*p.ClkDiv)
	eng.Schedule(target, func(sim.Cycle) { sub(1) })
	if _, err := eng.Run(func() bool { return done == 2 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dram.rowhits") != 0 {
		t.Fatalf("row survived a refresh: hits=%v", st.Get("dram.rowhits"))
	}
	if st.Get("dram.refreshes") == 0 {
		t.Fatal("no refresh recorded")
	}
}

func TestRefreshDisabled(t *testing.T) {
	p := DDR4_3200()
	p.TREFI = 0
	eng := sim.NewEngine()
	eng.MaxCycles = 10_000_000
	st := sim.NewStats()
	sys := NewSystem(eng, p, st, "dram.")
	done := 0
	for i := 0; i < 64; i++ {
		sys.Submit(&Request{Addr: memspace.PAddr(i * memspace.LineSize), Kind: Read, OnDone: func(sim.Cycle) { done++ }})
	}
	if _, err := eng.Run(func() bool { return done == 64 }); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Get("dram.refreshes") != 0 {
		t.Fatal("refresh fired while disabled")
	}
}
