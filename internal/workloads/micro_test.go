package workloads

import (
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
)

func TestMicroBuildersVerify(t *testing.T) {
	for _, inst := range []*Instance{
		MicroGather(false, 1), MicroGather(true, 1),
		MicroRMW(true, 1), MicroRMW(false, 1),
		MicroScatter(1),
	} {
		want := interpretInstance(t, inst)
		_ = want
		if inst.Len("B") == 0 {
			t.Fatalf("%s: empty index array", inst.Name)
		}
	}
	if !MicroRMW(true, 1).AtomicRMW || MicroRMW(false, 1).AtomicRMW {
		t.Fatal("atomic flags wrong")
	}
	if !MicroGather(true, 1).Consume || MicroGather(false, 1).Consume {
		t.Fatal("consume flags wrong")
	}
}

func TestAllMissIndicesUniqueAndInRange(t *testing.T) {
	for _, cfg := range AllMissSeries() {
		inst := MicroAllMiss(cfg)
		n := inst.Len("B")
		if n != 65536 {
			t.Fatalf("%s: %d indices, want 64K", cfg.Label(), n)
		}
		seen := make(map[uint64]bool, n)
		aLen := uint64(inst.Len("A"))
		for i := 0; i < n; i++ {
			v := inst.Read("B", i)
			if v >= aLen {
				t.Fatalf("%s: index %d out of range", cfg.Label(), v)
			}
			if seen[v] {
				t.Fatalf("%s: duplicate index %d", cfg.Label(), v)
			}
			seen[v] = true
		}
	}
}

// measureOrdering checks the constructed locality statistics of the
// index orderings.
func measureOrdering(t *testing.T, cfg AllMissConfig) (sameRowFrac, sameChFrac, sameBGFrac float64) {
	t.Helper()
	inst := MicroAllMiss(cfg)
	p := dram.DDR4_3200()
	m := dram.NewMapper(p)
	paBase := inst.Space.Translate(inst.Binder.Base["A"])
	n := inst.Len("B")
	lastRowOfBank := map[int]int{}
	lastBGOfCh := map[int]int{}
	sameRow, samebankCnt := 0, 0
	sameCh, sameBG, chPairs := 0, 0, 0
	prevCh := -1
	for i := 0; i < n; i++ {
		pa := paBase + memspace.PAddr(inst.Read("B", i)*4)
		c := m.Map(pa)
		gb := c.GlobalBank(&p)
		if last, ok := lastRowOfBank[gb]; ok {
			samebankCnt++
			if last == c.Row {
				sameRow++
			}
		}
		lastRowOfBank[gb] = c.Row
		if prevCh >= 0 && c.Channel == prevCh {
			sameCh++
		}
		prevCh = c.Channel
		// Bank-group reuse matters per channel (tCCD_L is a
		// per-channel constraint): compare against the previous
		// access of the same channel.
		if last, ok := lastBGOfCh[c.Channel]; ok {
			chPairs++
			if last == c.BankGroup {
				sameBG++
			}
		}
		lastBGOfCh[c.Channel] = c.BankGroup
	}
	return float64(sameRow) / float64(samebankCnt),
		float64(sameCh) / float64(n-1),
		float64(sameBG) / float64(chPairs)
}

func TestAllMissOrderingStatistics(t *testing.T) {
	// Best case: high row reuse per bank, alternating channels.
	rowHi, chHi, _ := measureOrdering(t, AllMissConfig{RBH: 1, CHI: true, BGI: true})
	if rowHi < 0.9 {
		t.Fatalf("RBH100 ordering: same-row fraction %.2f, want > 0.9", rowHi)
	}
	if chHi > 0.2 {
		t.Fatalf("CHI ordering: same-channel fraction %.2f, want < 0.2", chHi)
	}
	// Worst case: row switch on every same-bank access.
	rowLo, chLo, _ := measureOrdering(t, AllMissConfig{RBH: 0, CHI: false, BGI: false})
	if rowLo > 0.1 {
		t.Fatalf("RBH0 ordering: same-row fraction %.2f, want < 0.1", rowLo)
	}
	if chLo < 0.9 {
		t.Fatalf("no-CHI ordering: same-channel fraction %.2f, want > 0.9", chLo)
	}
	// BGI off: same-bank-group consecutive accesses dominate within a
	// channel compared to BGI on.
	_, _, bgOn := measureOrdering(t, AllMissConfig{RBH: 1, CHI: true, BGI: true})
	_, _, bgOff := measureOrdering(t, AllMissConfig{RBH: 1, CHI: true, BGI: false})
	if bgOff <= bgOn {
		t.Fatalf("no-BGI (%f) should have more same-BG pairs than BGI (%f)", bgOff, bgOn)
	}
	if len(AllMissSeries()) != 6 {
		t.Fatal("series should have 6 configurations")
	}
}

func TestAllMissAlignment(t *testing.T) {
	inst := MicroAllMiss(AllMissConfig{RBH: 1, CHI: true, BGI: true})
	pa := inst.Space.Translate(inst.Binder.Base["A"])
	if uint64(pa)%(4<<20) != 0 {
		t.Fatalf("A's physical base %#x not 4MB-aligned", uint64(pa))
	}
}
