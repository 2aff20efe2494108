package main

import (
	"slices"
	"strings"
	"testing"
)

const cannedBench = `goos: linux
goarch: amd64
pkg: dx100/internal/sim
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSchedulePop-8     	31101847	        38.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineStepDense-8 	63293814	        18.90 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineStepSparse-8	1000000000	         0.017 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	dx100/internal/sim	4.5s
BenchmarkDRAMTick-8        	  876543	      1400 ns/op	      12 B/op	       0 allocs/op
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(cannedBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSchedulePop":      38.10,
		"BenchmarkEngineStepDense":  18.90,
		"BenchmarkEngineStepSparse": 0.017,
		"BenchmarkDRAMTick":         1400,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if len(got[name]) != 1 || got[name][0] != ns {
			t.Errorf("%s = %v, want [%v]", name, got[name], ns)
		}
	}
}

func TestParseBenchKeepsFastestDuplicate(t *testing.T) {
	in := "BenchmarkX-8 100 50.0 ns/op\nBenchmarkX-8 100 40.0 ns/op\nBenchmarkX-8 100 45.0 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{50, 40, 45}; !slices.Equal(got["BenchmarkX"], want) {
		t.Errorf("readings = %v, want %v in order", got["BenchmarkX"], want)
	}
	if f := fastest(got)["BenchmarkX"]; f != 40.0 {
		t.Errorf("duplicate fold = %v, want the minimum 40.0", f)
	}
}

func TestDiff(t *testing.T) {
	base := map[string]float64{
		"BenchmarkFast":   10.0,
		"BenchmarkSubNs":  0.016, // below the noise floor: never gates
		"BenchmarkAbsent": 25.0,
	}
	fresh := map[string]float64{
		"BenchmarkFast":  10.5, // +5%: within a 10% budget
		"BenchmarkSubNs": 5.0,  // 300x "slower" but skipped
	}
	n, report := diff(base, fresh, 0.10)
	if n != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", n, report)
	}
	if !strings.Contains(report, "sub-ns, skipped") {
		t.Errorf("report does not mark the sub-ns skip:\n%s", report)
	}
	if !strings.Contains(report, "missing") {
		t.Errorf("report does not mark the missing benchmark:\n%s", report)
	}

	fresh["BenchmarkFast"] = 12.0 // +20%: beyond budget
	n, report = diff(base, fresh, 0.10)
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report does not flag the regression:\n%s", report)
	}
}

func TestLoadBaselineFromRepoRoot(t *testing.T) {
	base, gates, err := loadBaseline("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkSchedulePop", "BenchmarkEngineStepDense", "BenchmarkDRAMTick"} {
		if base[name] <= 0 {
			t.Errorf("baseline %s = %v, want > 0", name, base[name])
		}
	}
	var sampled *speedupGate
	for i := range gates {
		if gates[i].Denominator == "BenchmarkSampledRun/GZZ-base8/sampled" {
			sampled = &gates[i]
		}
	}
	if sampled == nil {
		t.Fatal("no gate on BenchmarkSampledRun/GZZ-base8/sampled")
	}
	if sampled.MinRatio < 3.0 {
		t.Errorf("sampled run gate min_ratio = %v, want >= 3.0", sampled.MinRatio)
	}
}

func TestCheckGates(t *testing.T) {
	gates := []speedupGate{
		{Name: "speedup", Numerator: "BenchmarkA/full", Denominator: "BenchmarkA/fast", MinRatio: 1.3},
		{Name: "floor", Numerator: "BenchmarkB/full", Denominator: "BenchmarkB/fast", MinRatio: 0.85},
	}
	fresh := map[string][]float64{
		"BenchmarkA/full": {140},
		"BenchmarkA/fast": {100}, // 1.40x: passes the 1.3 gate
		"BenchmarkB/full": {90},
		"BenchmarkB/fast": {100}, // 0.90x: above the 0.85 floor
	}
	if n, report := checkGates(gates, fresh); n != 0 {
		t.Fatalf("failures = %d, want 0\n%s", n, report)
	}

	fresh["BenchmarkA/full"] = []float64{120} // 1.20x: below the gate
	n, report := checkGates(gates, fresh)
	if n != 1 {
		t.Fatalf("failures = %d, want 1\n%s", n, report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("report does not flag the failed gate:\n%s", report)
	}

	delete(fresh, "BenchmarkB/fast") // a missing side must fail, not skip
	if n, _ := checkGates(gates, fresh); n != 2 {
		t.Errorf("failures with missing benchmark = %d, want 2", n)
	}
}

// TestCheckGatesMedianOfRounds pins that a gate reads the median of
// its per-round ratios, pairing the k-th reading of each side: one
// noisy round moves it neither way.
func TestCheckGatesMedianOfRounds(t *testing.T) {
	gates := []speedupGate{{Name: "speedup", Numerator: "BenchmarkA/full", Denominator: "BenchmarkA/fast", MinRatio: 3.0}}
	fresh := map[string][]float64{
		"BenchmarkA/full": {310, 320, 150, 330, 900},
		"BenchmarkA/fast": {100, 100, 100, 100, 100}, // ratios 3.1, 3.2, 1.5, 3.3, 9.0
	}
	n, report := checkGates(gates, fresh)
	if n != 0 || !strings.Contains(report, "3.20") {
		t.Fatalf("failures = %d, want 0 at the median 3.20\n%s", n, report)
	}
	fresh["BenchmarkA/fast"] = []float64{100, 120, 120, 120, 20} // ratios 3.1, 2.67, 1.25, 2.75, 45
	if n, report := checkGates(gates, fresh); n != 1 || !strings.Contains(report, "2.75") {
		t.Fatalf("failures = %d, want 1 at the median 2.75\n%s", n, report)
	}
}
