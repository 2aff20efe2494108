package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dx100/internal/workloads"
)

// The figure runners are exercised at tiny scale on a workload subset
// so `go test` covers every experiment code path; the benchmarks run
// them at evaluation scale.

// TestFig8aRuns also pins the scale-1 cycle counts of the five All-Hit
// microbenchmarks: the only golden on the WarmLLC warm-up path.
func TestFig8aRuns(t *testing.T) {
	s, err := Runner{}.Fig8aAllHit(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 5 {
		t.Fatalf("Fig 8a rows = %d, want 5 microbenchmarks", len(s.Rows))
	}
	out := s.String()
	for _, name := range []string{"Gather-SPD", "Gather-Full", "RMW-Atomic", "RMW-NoAtom", "Scatter"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s in:\n%s", name, out)
		}
	}
	golden := map[string][2]string{
		"Gather-SPD":  {"32885", "27196"},
		"Gather-Full": {"32885", "21046"},
		"RMW-Atomic":  {"471083", "18575"},
		"RMW-NoAtom":  {"45105", "18575"},
		"Scatter":     {"161590", "19073"},
	}
	for _, r := range s.Rows {
		if want := golden[r[0]]; r[1] != want[0] || r[2] != want[1] {
			t.Errorf("%s: base/DX100 cycles = %s/%s, want %s/%s", r[0], r[1], r[2], want[0], want[1])
		}
	}
}

func TestFig8aRMWAtomicGapShape(t *testing.T) {
	// The RMW-Atomic speedup must far exceed RMW-NoAtom: eliminating
	// fences is DX100's largest microbenchmark win (§6.1).
	s, err := Runner{}.Fig8aAllHit(1)
	if err != nil {
		t.Fatal(err)
	}
	var atomic, noatom float64
	for _, r := range s.Rows {
		var v float64
		if _, err := fmtSscanf(r[3], &v); err != nil {
			t.Fatalf("bad speedup cell %q", r[3])
		}
		switch r[0] {
		case "RMW-Atomic":
			atomic = v
		case "RMW-NoAtom":
			noatom = v
		}
	}
	if atomic <= 2*noatom {
		t.Fatalf("RMW-Atomic %.2fx should dwarf RMW-NoAtom %.2fx", atomic, noatom)
	}
}

// fmtSscanf parses the leading float of a formatted cell like "5.65x".
func fmtSscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestFig9And10And11Render(t *testing.T) {
	rows, err := Runner{}.MainEvaluation(1, []string{"IS", "GZZ"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup() <= 1 {
			t.Errorf("%s speedup %.2f <= 1 even at small scale", r.Workload, r.Speedup())
		}
		if !r.HasDMP {
			t.Errorf("%s missing DMP run", r.Workload)
		}
	}
	for _, s := range []*Series{Fig9(rows), Fig10(rows), Fig11(rows), Fig12(rows), EnergyTable(rows)} {
		if len(s.Rows) == 0 || s.String() == "" {
			t.Fatalf("series %q empty", s.Title)
		}
	}
}

// TestFigureTable pins the figure names dx100sim -fig and dx100d serve,
// and checks that a table entry renders what its direct call renders.
func TestFigureTable(t *testing.T) {
	want := []string{"8a", "8bc", "9", "10", "11", "12", "13", "14", "ablation", "energy", "skew"}
	if got := FigureNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FigureNames = %v, want %v", got, want)
	}
	names := []string{"micro.gather"}
	for _, tc := range []struct {
		fig     string
		withDMP bool
		render  func([]MainRow) *Series
	}{{"9", false, Fig9}, {"12", true, Fig12}} {
		rows, err := Runner{}.MainEvaluation(1, names, tc.withDMP)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Runner{}.Figure(tc.fig, 1, names)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != tc.render(rows).String() {
			t.Errorf("Figure(%q) differs from its direct render:\n%s", tc.fig, got)
		}
	}
	for _, name := range []string{"7", "all"} {
		if err := CheckFigure(name); err == nil || !strings.Contains(err.Error(), strings.Join(want, ", ")) {
			t.Errorf("CheckFigure(%q) = %v, want the list of known figures", name, err)
		}
		if _, err := (Runner{}).Figure(name, 1, nil); err == nil || err.Error() != CheckFigure(name).Error() {
			t.Errorf("Figure(%q) error = %v, want CheckFigure's", name, err)
		}
	}
}

func TestFig13TileSizeMonotoneShape(t *testing.T) {
	s, err := Runner{}.Fig13TileSize(1, []string{"IS"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 6 {
		t.Fatalf("tile sweep rows = %d, want 6", len(s.Rows))
	}
	// Larger tiles must not be drastically worse: the 32K point should
	// beat the 1K point (§6.4).
	var first, last float64
	if _, err := fmtSscanf(s.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscanf(s.Rows[len(s.Rows)-1][1], &last); err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("32K tile speedup %.2f <= 1K tile %.2f; tile scaling inverted", last, first)
	}
}

func TestFig14ScalabilityRuns(t *testing.T) {
	s, err := Runner{}.Fig14Scalability(1, []string{"GZZ"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 configs", len(s.Rows))
	}
}

func TestAblationShape(t *testing.T) {
	s, err := Runner{}.AblationReorder(1, []string{"GZZ"})
	if err != nil {
		t.Fatal(err)
	}
	var full, tiny float64
	if _, err := fmtSscanf(s.Rows[0][1], &full); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscanf(s.Rows[0][2], &tiny); err != nil {
		t.Fatal(err)
	}
	if full <= tiny {
		t.Fatalf("full DX100 (%.2fx) should beat a 1x1 row table (%.2fx): reordering is the mechanism", full, tiny)
	}
}

func TestEnergyOfBreakdown(t *testing.T) {
	res, err := Run("IS", 1, Default(DX))
	if err != nil {
		t.Fatal(err)
	}
	e := EnergyOf(res, 1)
	if e.TotalUJ <= 0 || e.DRAM <= 0 || e.DX100 <= 0 {
		t.Fatalf("energy breakdown wrong: %+v", e)
	}
	base, err := Run("IS", 1, Default(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	eb := EnergyOf(base, 0)
	if eb.Core <= e.Core {
		t.Fatal("baseline core energy should exceed DX100's (instruction reduction)")
	}
}

func TestAllMissConstancyShape(t *testing.T) {
	// The core claim of Figure 8b/c: DX100's cycles are invariant to
	// the input index ordering.
	cfgs := workloads.AllMissSeries()
	worst, err := RunInstance(workloads.MicroAllMiss(cfgs[0]), Default(DX))
	if err != nil {
		t.Fatal(err)
	}
	best, err := RunInstance(workloads.MicroAllMiss(cfgs[len(cfgs)-1]), Default(DX))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(worst.Cycles), float64(best.Cycles)
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi/lo > 1.1 {
		t.Fatalf("DX100 varies %.2fx across orderings; should be near-constant", hi/lo)
	}
}
