// Package dx100bench regenerates every table and figure of the
// paper's evaluation (§6) as Go benchmarks. Each benchmark runs the
// corresponding experiment end-to-end on the simulator and reports the
// headline metric the paper quotes (speedup geomean, bandwidth ratio,
// ...) via b.ReportMetric, logging the full series (use -v to see the
// rows) so they can be compared against the paper.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment drivers fan independent runs out over a worker pool
// (one worker per CPU by default; exp.Runner.Workers overrides), so
// wall-clock time shrinks with host core count while the emitted rows
// stay byte-identical to a serial run. Scales are chosen so the whole
// suite completes in tens of minutes; EXPERIMENTS.md records the
// mapping to the paper's dataset sizes.
package dx100bench

import (
	"sync"
	"testing"

	"dx100/internal/amodel"
	"dx100/internal/exp"
	"dx100/internal/sim"
)

const (
	// mainScale sizes Figures 9-12 (indirect footprints of 16-32 MB,
	// well past the 8-10 MB LLC, like the paper's datasets).
	mainScale = 8
	// sweepScale sizes the tile-size and scalability sweeps, which
	// multiply the run count.
	sweepScale = 4
)

// mainRows caches the Fig 9-12 runs: the four figures share them, as
// in the paper. The sync.Once guard keeps the cache safe under
// -benchtime reruns and parallel benchmark execution.
var (
	mainRowsOnce sync.Once
	mainRows     []exp.MainRow
	mainRowsErr  error
)

func mainEval(b *testing.B) []exp.MainRow {
	b.Helper()
	mainRowsOnce.Do(func() {
		mainRows, mainRowsErr = exp.Runner{}.MainEvaluation(mainScale, nil, true)
	})
	if mainRowsErr != nil {
		b.Fatal(mainRowsErr)
	}
	return mainRows
}

func BenchmarkFig8aAllHit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.Fig8aAllHit(2)
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}

func BenchmarkFig8bcAllMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.Fig8bcAllMiss()
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}

func BenchmarkFig9Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mainEval(b)
		s := exp.Fig9(rows)
		b.Log(s)
		var sps []float64
		for _, r := range rows {
			sps = append(sps, r.Speedup())
		}
		b.ReportMetric(sim.Geomean(sps), "speedup_geomean")
	}
}

func BenchmarkFig10Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mainEval(b)
		s := exp.Fig10(rows)
		b.Log(s)
		var bw []float64
		for _, r := range rows {
			if r.Base.BWUtil > 0 {
				bw = append(bw, r.DX.BWUtil/r.Base.BWUtil)
			}
		}
		b.ReportMetric(sim.Geomean(bw), "bw_ratio_geomean")
	}
}

func BenchmarkFig11CoreStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mainEval(b)
		s := exp.Fig11(rows)
		b.Log(s)
		var ir []float64
		for _, r := range rows {
			if r.DX.Instructions > 0 {
				ir = append(ir, r.Base.Instructions/r.DX.Instructions)
			}
		}
		b.ReportMetric(sim.Geomean(ir), "instr_reduction_geomean")
	}
}

func BenchmarkFig12VsDMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := mainEval(b)
		s := exp.Fig12(rows)
		b.Log(s)
		var sps []float64
		for _, r := range rows {
			if r.HasDMP {
				sps = append(sps, r.SpeedupVsDMP())
			}
		}
		b.ReportMetric(sim.Geomean(sps), "speedup_vs_dmp_geomean")
	}
}

// sweepSet is the workload subset the multiplicative sweeps run on:
// two RMW kernels, a direct-range kernel, an indirect-range kernel, a
// scatter and an address-calculation kernel — one of each shape.
var sweepSet = []string{"IS", "GZZ", "PR", "GZZI", "XRAGE", "PRH"}

func BenchmarkFig13TileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.Fig13TileSize(sweepScale, sweepSet)
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}

func BenchmarkFig14Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.Fig14Scalability(sweepScale/2, sweepSet)
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}

func BenchmarkTable4AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := amodel.Format()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("== Table 4: area and power ==\n" + out)
		}
		sum, err := amodel.Summarize()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.Area14, "area_mm2_14nm")
	}
}

func BenchmarkEnergyEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Runner{}.MainEvaluation(2, sweepSet, false)
		if err != nil {
			b.Fatal(err)
		}
		s := exp.EnergyTable(rows)
		b.Log(s)
	}
}

// BenchmarkFigureRun times single end-to-end experiment runs with the
// quiescence-aware engine enabled ("ff") and with exact cycle-by-cycle
// stepping ("noff"). The simulated results are byte-identical either
// way (internal/exp's equivalence tests pin that); the ratio of the two
// wall-clock times is the engine speedup recorded in BENCH_engine.json.
func BenchmarkFigureRun(b *testing.B) {
	const figureScale = 4
	cases := []struct {
		workload string
		mode     exp.Mode
		label    string
	}{
		{"IS", exp.Baseline, "IS/baseline"},
		{"GZZ", exp.Baseline, "GZZ/baseline"},
		{"GZZ", exp.DX, "GZZ/dx100"},
		{"XRAGE", exp.DX, "XRAGE/dx100"},
	}
	for _, c := range cases {
		for _, noff := range []bool{false, true} {
			tag := "ff"
			if noff {
				tag = "noff"
			}
			b.Run(c.label+"/"+tag, func(b *testing.B) {
				cfg := exp.Default(c.mode)
				opts := exp.RunOptions{NoFastForward: noff}
				for i := 0; i < b.N; i++ {
					if _, err := exp.RunOpts(c.workload, figureScale, cfg, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSkewSweep runs the skewed-graph sweep at full detail, at
// the scale EXPERIMENTS.md "Skew sweep" reports.
func BenchmarkSkewSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.SkewSweep(2)
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}

func BenchmarkAblationReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Runner{}.AblationReorder(sweepScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Log(s)
	}
}
