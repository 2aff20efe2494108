package exp

import (
	"fmt"

	"dx100/internal/workloads"
)

// The skew sweep is a scenario-diversity study: the paper evaluates
// GAP workloads on uniform graphs (§5, avg degree 15), but real graphs
// are skewed — power-law degree distributions, community locality —
// and traversal direction (push scatters RMWs through the hubs, pull
// gathers from them) changes which side of the indirection is
// irregular. Sweeping exponent × direction × baseline/DX100 maps where
// the accelerator's win grows or collapses as index-distribution shape
// changes.

// SkewSweep runs the graph PR kernel at full detail on the uniform
// control (exponent 0) and three power-law tails from heavy (1.8) to
// light (3.0), in both traversal directions, on the baseline and
// DX100 systems, and tabulates DX100's speedup per point.
func (r Runner) SkewSweep(scale int) (*Series, error) {
	exponents := []float64{0, 1.8, 2.2, 3.0}
	dirs := []string{"push", "pull"}
	s := &Series{
		Title:  "Skew sweep: DX100 speedup vs degree-distribution shape x traversal direction (graph PR)",
		Header: []string{"graph", "dir", "base cycles", "dx100 cycles", "speedup"},
	}
	specs := make([]runSpec, 0, 2*len(exponents)*len(dirs))
	for _, e := range exponents {
		for _, d := range dirs {
			e, d := e, d
			inst := func() *workloads.Instance {
				return workloads.BuildGraph(workloads.GraphConfig{
					Kernel: "pr", Dir: d,
					Exponent: e, Clustering: workloads.DefaultClustering,
				}, scale)
			}
			specs = append(specs,
				runSpec{inst: inst, cfg: Default(Baseline)},
				runSpec{inst: inst, cfg: Default(DX)})
		}
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	type point struct {
		label string
		sp    float64
	}
	best := point{sp: -1}
	worst := point{sp: -1}
	i := 0
	for _, e := range exponents {
		for _, d := range dirs {
			base, dx := res[i], res[i+1]
			i += 2
			sp := float64(base.Cycles) / float64(dx.Cycles)
			graph := "uniform"
			if e > 0 {
				graph = fmt.Sprintf("a=%.1f", e)
			}
			s.AddRow(graph, d, fmt.Sprint(base.Cycles), fmt.Sprint(dx.Cycles), f2x(sp))
			label := graph + "/" + d
			if best.sp < 0 || sp > best.sp {
				best = point{label, sp}
			}
			if worst.sp < 0 || sp < worst.sp {
				worst = point{label, sp}
			}
		}
	}
	s.Note("DX100's win peaks at %s (%s) and bottoms at %s (%s)",
		best.label, f2x(best.sp), worst.label, f2x(worst.sp))
	return s, nil
}
