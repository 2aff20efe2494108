package exp

import (
	"math"
	"testing"

	"dx100/internal/sim"
)

// syntheticResult builds a Result over hand-picked counters so the
// energy breakdown is checkable against the DefaultEnergy constants
// (DRAM 10000 pJ/access, LLC 600, L2 150, L1 30, instr 70, SPD 15,
// elem 5, 300 mW static at 3.2 GHz).
func syntheticResult(mode Mode) Result {
	st := sim.NewStats()
	st.Counter("dram.reads").Add(800)
	st.Counter("dram.writes").Add(200) // 1000 accesses -> 10 uJ
	st.Counter("llc.accesses").Add(1000)
	st.Counter("l2.accesses").Add(2000)
	st.Counter("l1d.accesses").Add(10000) // caches: 0.6+0.3+0.3 = 1.2 uJ
	instr := 100000.0                     // core: 7 uJ
	if mode == DX {
		st.Counter("dx100.0.spd.accesses").Add(1000) // 15000 pJ
		st.Counter("dx100.0.rt.inserts").Add(500)
		st.Counter("dx100.0.stream.lines").Add(300)
		st.Counter("dx100.0.words").Add(200) // 1000 elems -> 5000 pJ
		instr = 10000                        // core: 0.7 uJ
	}
	return Result{
		Workload:     "synthetic",
		Mode:         mode,
		Cycles:       3_200_000, // 1 ms at 3.2 GHz -> 300 uJ DX static
		Instructions: instr,
		Stats:        st,
	}
}

// TestEnergyOfGolden pins one energy breakdown end to end.
func TestEnergyOfGolden(t *testing.T) {
	approx := func(got, want float64, what string) {
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s = %v uJ, want %v", what, got, want)
		}
	}
	base := EnergyOf(syntheticResult(Baseline), 0)
	approx(base.DRAM, 10, "baseline DRAM")
	approx(base.Caches, 1.2, "baseline caches")
	approx(base.Core, 7, "baseline core")
	approx(base.DX100, 0, "baseline DX100")
	approx(base.TotalUJ, 18.2, "baseline total")

	dx := EnergyOf(syntheticResult(DX), 1)
	approx(dx.Core, 0.7, "dx core")
	// 15000 pJ SPD + 5000 pJ elems + 300 uJ static = 300.02 uJ.
	approx(dx.DX100, 300.02, "dx DX100")
	approx(dx.TotalUJ, 10+1.2+0.7+300.02, "dx total")
}

// TestEnergyTableGolden pins one rendered row of the energy table.
func TestEnergyTableGolden(t *testing.T) {
	rows := []MainRow{{
		Workload: "synthetic",
		Base:     syntheticResult(Baseline),
		DX:       syntheticResult(DX),
	}}
	s := EnergyTable(rows)
	if len(s.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(s.Rows))
	}
	want := []string{"synthetic", "18.2", "311.9", "0.06x", "7.0", "0.7"}
	for i, cell := range want {
		if s.Rows[0][i] != cell {
			t.Fatalf("cell %d = %q, want %q (row %v)", i, s.Rows[0][i], cell, s.Rows[0])
		}
	}
	if len(s.Notes) == 0 {
		t.Fatal("energy table lost its geomean note")
	}
}
