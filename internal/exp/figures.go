package exp

import (
	"fmt"
	"math"
	"strings"

	"dx100/internal/dx100"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// MainRow holds one workload's measurements across the three systems —
// the raw material of Figures 9, 10, 11 and 12.
type MainRow struct {
	Workload string
	Base     Result
	DX       Result
	DMP      Result
	HasDMP   bool
}

// Speedup returns DX100's speedup over the baseline.
func (r MainRow) Speedup() float64 { return float64(r.Base.Cycles) / float64(r.DX.Cycles) }

// SpeedupVsDMP returns DX100's speedup over DMP.
func (r MainRow) SpeedupVsDMP() float64 { return float64(r.DMP.Cycles) / float64(r.DX.Cycles) }

// MainEvaluation runs the 12 benchmarks on the baseline and DX100
// systems (and DMP when withDMP is set), producing the per-workload
// rows behind Figures 9-12. The independent runs execute concurrently
// on the Runner's worker pool; rows come back in workload order
// regardless of which run finishes first.
func (r Runner) MainEvaluation(scale int, names []string, withDMP bool) ([]MainRow, error) {
	if names == nil {
		names = workloads.Order
	}
	modes := []Mode{Baseline, DX}
	if withDMP {
		modes = append(modes, DMP)
	}
	specs := make([]runSpec, 0, len(names)*len(modes))
	for _, name := range names {
		for _, m := range modes {
			sp, err := namedSpec(name, scale, r.Config(m))
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]MainRow, len(names))
	for i, name := range names {
		rr := res[i*len(modes) : (i+1)*len(modes)]
		rows[i] = MainRow{Workload: name, Base: rr[0], DX: rr[1]}
		if withDMP {
			rows[i].DMP = rr[2]
			rows[i].HasDMP = true
		}
	}
	return rows, nil
}

// Fig9 renders the speedup series of Figure 9 from main-evaluation
// rows.
func Fig9(rows []MainRow) *Series {
	s := &Series{
		Title:  "Figure 9: DX100 speedup over the 4-core baseline",
		Header: []string{"workload", "base cycles", "dx100 cycles", "speedup"},
	}
	var sps []float64
	for _, r := range rows {
		s.AddRow(r.Workload, fmt.Sprint(r.Base.Cycles), fmt.Sprint(r.DX.Cycles), f2x(r.Speedup()))
		sps = append(sps, r.Speedup())
	}
	s.Note("geomean speedup %s (paper: 2.6x)", f2x(sim.Geomean(sps)))
	return s
}

// Fig10 renders the memory-system series of Figure 10: bandwidth
// utilization, row-buffer hit rate and request-buffer occupancy.
func Fig10(rows []MainRow) *Series {
	s := &Series{
		Title:  "Figure 10: bandwidth utilization / row-buffer hit rate / request-buffer occupancy",
		Header: []string{"workload", "BW base", "BW dx", "RBH base", "RBH dx", "occ base", "occ dx"},
	}
	var bw, rbh, occ []float64
	for _, r := range rows {
		s.AddRow(r.Workload,
			pct(r.Base.BWUtil), pct(r.DX.BWUtil),
			pct(r.Base.RBH), pct(r.DX.RBH),
			pct(r.Base.Occupancy), pct(r.DX.Occupancy))
		bw = append(bw, safeRatio(r.DX.BWUtil, r.Base.BWUtil))
		rbh = append(rbh, safeRatio(r.DX.RBH, r.Base.RBH))
		occ = append(occ, safeRatio(r.DX.Occupancy, r.Base.Occupancy))
	}
	s.Note("BW util improvement geomean %s (paper: 3.9x)", f2x(sim.Geomean(bw)))
	s.Note("row-buffer hit improvement geomean %s (paper: 2.7x)", f2x(sim.Geomean(rbh)))
	s.Note("occupancy improvement geomean %s (paper: 12.1x)", f2x(sim.Geomean(occ)))
	return s
}

// Fig11 renders the instruction and MPKI reductions of Figure 11.
func Fig11(rows []MainRow) *Series {
	s := &Series{
		Title:  "Figure 11: core instruction and cache MPKI reduction",
		Header: []string{"workload", "instr base", "instr dx", "instr redux", "MPKI base", "MPKI dx", "MPKI redux"},
	}
	var ir, mr []float64
	for _, r := range rows {
		iRed := safeRatio(r.Base.Instructions, r.DX.Instructions)
		// A fully-offloaded workload can reach zero core misses; clamp
		// the denominator so the reduction stays finite.
		mRed := r.Base.MPKI / math.Max(r.DX.MPKI, 0.01)
		s.AddRow(r.Workload,
			fmt.Sprintf("%.0f", r.Base.Instructions), fmt.Sprintf("%.0f", r.DX.Instructions), f2x(iRed),
			f2(r.Base.MPKI), f2(r.DX.MPKI), f2x(mRed))
		ir = append(ir, iRed)
		mr = append(mr, mRed)
	}
	s.Note("instruction reduction geomean %s (paper: 3.6x)", f2x(sim.Geomean(ir)))
	s.Note("MPKI reduction geomean %s (paper: 6.1x)", f2x(sim.Geomean(mr)))
	return s
}

// Fig12 renders the DMP comparison of Figure 12.
func Fig12(rows []MainRow) *Series {
	s := &Series{
		Title:  "Figure 12: DX100 vs the DMP indirect prefetcher",
		Header: []string{"workload", "dmp cycles", "dx100 cycles", "speedup vs dmp", "BW dmp", "BW dx"},
	}
	var sps, bw []float64
	for _, r := range rows {
		if !r.HasDMP {
			continue
		}
		s.AddRow(r.Workload, fmt.Sprint(r.DMP.Cycles), fmt.Sprint(r.DX.Cycles),
			f2x(r.SpeedupVsDMP()), pct(r.DMP.BWUtil), pct(r.DX.BWUtil))
		sps = append(sps, r.SpeedupVsDMP())
		bw = append(bw, safeRatio(r.DX.BWUtil, r.DMP.BWUtil))
	}
	s.Note("geomean speedup vs DMP %s (paper: 2.0x)", f2x(sim.Geomean(sps)))
	s.Note("BW util vs DMP geomean %s (paper: 3.3x)", f2x(sim.Geomean(bw)))
	return s
}

// Fig8aAllHit runs the five All-Hit microbenchmarks of Figure 8 (a).
func (r Runner) Fig8aAllHit(scale int) (*Series, error) {
	s := &Series{
		Title:  "Figure 8a: All-Hit microbenchmark speedups",
		Header: []string{"microbench", "base cycles", "dx100 cycles", "speedup", "paper"},
	}
	type mb struct {
		inst  func() *workloads.Instance
		cores int
		paper string
	}
	cases := []mb{
		{func() *workloads.Instance { return workloads.MicroGather(true, scale) }, 4, "1.2x"},
		{func() *workloads.Instance { return workloads.MicroGather(false, scale) }, 4, "3.2x"},
		{func() *workloads.Instance { return workloads.MicroRMW(true, scale) }, 4, "17.8x"},
		{func() *workloads.Instance { return workloads.MicroRMW(false, scale) }, 4, "3.7x"},
		{func() *workloads.Instance { return workloads.MicroScatter(scale) }, 1, "6.6x"},
	}
	specs := make([]runSpec, 0, 2*len(cases))
	for _, c := range cases {
		bcfg := r.Config(Baseline)
		bcfg.Cores = c.cores
		bcfg.WarmLLC = true
		if c.cores == 1 {
			bcfg.LLCBytes = 4 << 20
		}
		dcfg := r.Config(DX)
		dcfg.Cores = c.cores
		dcfg.WarmLLC = true
		if c.cores == 1 {
			dcfg.LLCBytes = 2 << 20
		}
		specs = append(specs,
			runSpec{inst: c.inst, cfg: bcfg},
			runSpec{inst: c.inst, cfg: dcfg})
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		base, dx := res[2*i], res[2*i+1]
		sp := float64(base.Cycles) / float64(dx.Cycles)
		s.AddRow(base.Workload, fmt.Sprint(base.Cycles), fmt.Sprint(dx.Cycles), f2x(sp), c.paper)
	}
	return s, nil
}

// Fig8bcAllMiss runs the All-Miss gather across the six index
// orderings of Figure 8 (b)/(c).
func (r Runner) Fig8bcAllMiss() (*Series, error) {
	s := &Series{
		Title:  "Figure 8b/c: All-Miss gather vs index ordering (64K unique indices)",
		Header: []string{"ordering", "base cycles", "dx cycles", "speedup", "BW base", "BW dx"},
	}
	cfgs := workloads.AllMissSeries()
	specs := make([]runSpec, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		cfg := cfg
		inst := func() *workloads.Instance { return workloads.MicroAllMiss(cfg) }
		specs = append(specs,
			runSpec{inst: inst, cfg: r.Config(Baseline)},
			runSpec{inst: inst, cfg: r.Config(DX)})
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		base, dx := res[2*i], res[2*i+1]
		s.AddRow(cfg.Label(), fmt.Sprint(base.Cycles), fmt.Sprint(dx.Cycles),
			f2x(float64(base.Cycles)/float64(dx.Cycles)), pct(base.BWUtil), pct(dx.BWUtil))
	}
	s.Note("paper: speedup 9.9x (worst ordering) down to 1.7x (best); DX100 BW steady at 82-85%%")
	return s, nil
}

// Fig13TileSize sweeps the scratchpad tile size (§6.4). The baseline
// runs and every tile point are submitted as one batch so the whole
// sweep fans out across the pool.
func (r Runner) Fig13TileSize(scale int, names []string) (*Series, error) {
	if names == nil {
		names = workloads.Order
	}
	s := &Series{
		Title:  "Figure 13: sensitivity to tile size",
		Header: []string{"tile", "geomean speedup"},
	}
	tiles := []int{1024, 2048, 4096, 8192, 16384, 32768}
	specs := make([]runSpec, 0, len(names)*(1+len(tiles)))
	for _, n := range names {
		sp, err := namedSpec(n, scale, r.Config(Baseline))
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	for _, tile := range tiles {
		for _, n := range names {
			cfg := r.Config(DX)
			cfg.Accel.Machine.TileElems = tile
			sp, err := namedSpec(n, scale, cfg)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	base := res[:len(names)]
	for ti, tile := range tiles {
		dx := res[(1+ti)*len(names) : (2+ti)*len(names)]
		var sps []float64
		for i := range names {
			sps = append(sps, float64(base[i].Cycles)/float64(dx[i].Cycles))
		}
		s.AddRow(fmt.Sprintf("%dK", tile/1024), f2x(sim.Geomean(sps)))
	}
	s.Note("paper: 1.7x at 1K rising to 2.9x at 32K")
	return s, nil
}

// Fig14Scalability runs the 8-core scaling study (§6.6).
func (r Runner) Fig14Scalability(scale int, names []string) (*Series, error) {
	if names == nil {
		names = workloads.Order
	}
	s := &Series{
		Title:  "Figure 14: scalability (speedup over same-core-count baseline)",
		Header: []string{"config", "geomean speedup"},
	}
	configs := []struct {
		label string
		base  SystemConfig
		dx    SystemConfig
		scale int
	}{
		{"4 cores, 1x DX100", r.Config(Baseline), r.Config(DX), scale},
		{"8 cores, 1x DX100 (4MB SPD)", r.apply(Scale8Baseline()), r.apply(Scale8(1)), scale * 2},
		{"8 cores, 2x DX100", r.apply(Scale8Baseline()), r.apply(Scale8(2)), scale * 2},
	}
	specs := make([]runSpec, 0, 2*len(configs)*len(names))
	for _, c := range configs {
		for _, n := range names {
			bs, err := namedSpec(n, c.scale, c.base)
			if err != nil {
				return nil, err
			}
			ds, err := namedSpec(n, c.scale, c.dx)
			if err != nil {
				return nil, err
			}
			specs = append(specs, bs, ds)
		}
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	for ci, c := range configs {
		var sps []float64
		for i := range names {
			b := res[2*(ci*len(names)+i)]
			d := res[2*(ci*len(names)+i)+1]
			sps = append(sps, float64(b.Cycles)/float64(d.Cycles))
		}
		s.AddRow(c.label, f2x(sim.Geomean(sps)))
	}
	s.Note("paper: 2.6x / 2.5x / 2.7x")
	return s, nil
}

// AblationReorder quantifies the design choices of DESIGN.md: Row
// Table reordering+coalescing on/off and direct-DRAM injection vs
// LLC-only routing.
func (r Runner) AblationReorder(scale int, names []string) (*Series, error) {
	if names == nil {
		names = []string{"IS", "GZZ", "XRAGE"}
	}
	s := &Series{
		Title:  "Ablation: reordering window and DRAM injection path",
		Header: []string{"workload", "full dx100", "tiny row table", "LLC-inject"},
	}
	tiny := r.Config(DX)
	tiny.Accel.RowTable = dx100.RowTableConfig{Rows: 1, Cols: 1}
	llc := r.Config(DX)
	llc.Accel.ForceLLCRoute = true
	variants := []SystemConfig{r.Config(Baseline), r.Config(DX), tiny, llc}
	specs := make([]runSpec, 0, len(names)*len(variants))
	for _, n := range names {
		for _, cfg := range variants {
			sp, err := namedSpec(n, scale, cfg)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	res, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		rr := res[i*len(variants) : (i+1)*len(variants)]
		b := float64(rr[0].Cycles)
		s.AddRow(n,
			f2x(b/float64(rr[1].Cycles)),
			f2x(b/float64(rr[2].Cycles)),
			f2x(b/float64(rr[3].Cycles)))
	}
	return s, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// figure is one named whole-figure experiment: a dx100sim -fig name
// and a dx100d GET /v1/figures/{n} path segment.
type figure struct {
	name string
	run  func(r Runner, scale int, names []string) (*Series, error)
}

// figures is the one table both front ends dispatch through, in the
// order FigureNames lists it.
var figures = []figure{
	{"8a", func(r Runner, scale int, _ []string) (*Series, error) { return r.Fig8aAllHit(scale) }},
	{"8bc", func(r Runner, _ int, _ []string) (*Series, error) { return r.Fig8bcAllMiss() }},
	{"9", mainFigure(Fig9, false)},
	{"10", mainFigure(Fig10, false)},
	{"11", mainFigure(Fig11, false)},
	{"12", mainFigure(Fig12, true)},
	{"13", Runner.Fig13TileSize},
	{"14", Runner.Fig14Scalability},
	{"ablation", Runner.AblationReorder},
	{"energy", mainFigure(EnergyTable, false)},
}

// mainFigure renders one view of a fresh MainEvaluation.
func mainFigure(render func([]MainRow) *Series, withDMP bool) func(Runner, int, []string) (*Series, error) {
	return func(r Runner, scale int, names []string) (*Series, error) {
		rows, err := r.MainEvaluation(scale, names, withDMP)
		if err != nil {
			return nil, err
		}
		return render(rows), nil
	}
}

// FigureNames lists the figures Figure runs.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// CheckFigure reports an error listing every figure name unless name
// is one of them.
func CheckFigure(name string) error {
	_, err := lookupFigure(name)
	return err
}

func lookupFigure(name string) (figure, error) {
	for _, f := range figures {
		if f.name == name {
			return f, nil
		}
	}
	return figure{}, fmt.Errorf("unknown figure %q (have %s)", name, strings.Join(FigureNames(), ", "))
}

// Figure runs the named figure's experiment at the given scale over
// names (nil selects the figure's default workloads).
func (r Runner) Figure(name string, scale int, names []string) (*Series, error) {
	f, err := lookupFigure(name)
	if err != nil {
		return nil, err
	}
	return f.run(r, scale, names)
}
