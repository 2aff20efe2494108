// Command dx100sim runs the DX100 reproduction: single workloads on
// any of the three systems (baseline, baseline+DMP, DX100), or the
// full experiment behind any figure or table of the paper.
//
// Usage:
//
//	dx100sim -list                          # workloads and Table 1 patterns
//	dx100sim -config                        # Table 3 system configuration
//	dx100sim -run IS -mode dx100 -scale 8   # one run with metrics
//	dx100sim -run IS -noff -json            # same Result, stepped cycle by cycle
//	dx100sim -run IS -trace t.jsonl -metrics m.prom   # event trace + full metrics
//	dx100sim -fig 9 -scale 8                # regenerate a figure
//	dx100sim -fig 9 -scale 8 -jobs 4        # ... on 4 worker goroutines
//	dx100sim -fig skew -scale 2             # skewed-graph sweep (full detail)
//	dx100sim -pattern traces/p.json -json   # compile a Spatter pattern file and run it
//	dx100sim -table4                        # area/power model
//
// -fig takes exactly the figure names dx100d serves at
// /v1/figures/{n}, and refuses the flags that shape one -run (-noff,
// -json, -sample-*, ...).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"dx100/internal/amodel"
	"dx100/internal/exp"
	"dx100/internal/loopir"
	"dx100/internal/obs"
	"dx100/internal/obs/prof"
	"dx100/internal/obs/span"
	"dx100/internal/sim"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list workloads with their Table 1 patterns")
		config   = flag.Bool("config", false, "print the Table 3 system configuration")
		table4   = flag.Bool("table4", false, "print the Table 4 area/power model")
		run      = flag.String("run", "", "run one workload by name")
		patt     = flag.String("pattern", "", "run a Spatter-style gather/scatter pattern JSON file instead of a named workload (composes with -mode, -scale and every -run output flag)")
		mode     = flag.String("mode", "dx100", "system: baseline, dmp or dx100")
		scale    = flag.Int("scale", 4, "dataset scale factor (1 = smoke test, 8+ = evaluation)")
		fig      = flag.String("fig", "", "regenerate a figure: "+strings.Join(exp.FigureNames(), ", "))
		names    = flag.String("workloads", "", "comma-separated workload subset for -fig")
		jobs     = flag.Int("jobs", 0, "concurrent experiment runs (0 = one per CPU, 1 = serial)")
		verbose  = flag.Bool("v", false, "dump engine stepping and raw statistics after -run")
		asJSON   = flag.Bool("json", false, "emit -run results as JSON (the dx100d wire form)")
		trace    = flag.String("trace", "", "with -run, stream the event trace to this file (.json = Chrome trace_event for chrome://tracing or Perfetto; anything else = JSON Lines)")
		spanTr   = flag.String("span-trace", "", "with -run, write the run's lifecycle spans (warm-up, sampling windows) to this file as Chrome trace_event JSON for Perfetto")
		metrics  = flag.String("metrics", "", "with -run, write the full metrics snapshot to this file (.json = JSON; anything else = Prometheus text)")
		profWin  = flag.Int64("profile-window", 0, "with -run, sample a telemetry timeline every N cycles and attribute core cycles to stall causes (0 = off)")
		timeline = flag.String("timeline", "", "with -run, write the sampled timeline and stall breakdown to this JSON file (implies profiling at the default window)")
		noFF     = flag.Bool("noff", false, "with -run, disable idle-cycle fast-forward (exact stepping; results are identical)")
		sampleI  = flag.Int("sample-interval", 0, "with -run, enable SMARTS interval sampling: functionally fast-forward this many instructions per core between detailed windows (0 = full detail)")
		sampleD  = flag.Int64("sample-detail", 0, "with -sample-interval, measured cycles per detailed window (0 = 20k)")
		sampleW  = flag.Int64("sample-warmup", 0, "with -sample-interval, unmeasured detailed warm-up cycles before each window's measurement")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	switch {
	case *list:
		listWorkloads()
	case *config:
		printConfig()
	case *table4:
		printTable4()
	case *run != "" || *patt != "":
		if *run != "" && *patt != "" {
			fatal(fmt.Errorf("-run and -pattern are mutually exclusive"))
		}
		runOne(*run, *patt, *mode, *scale, runFlags{
			verbose: *verbose, asJSON: *asJSON,
			trace: *trace, metrics: *metrics, spanTrace: *spanTr,
			profileWindow: *profWin, timeline: *timeline, noFF: *noFF,
			sampleInterval: *sampleI, sampleDetail: *sampleD, sampleWarmup: *sampleW,
		})
	case *fig != "":
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		refuseRunFlags(set)
		runFigure(exp.Runner{Workers: *jobs}, *fig, *scale, subset(*names))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func subset(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func listWorkloads() {
	fmt.Println("Table 1: common data access patterns of irregular applications")
	for _, name := range workloads.Order {
		inst := workloads.Registry[name](1)
		rep := loopir.Analyze(inst.Kernels[0])
		fmt.Printf("  %-6s %-55s depth=%d ranges=%d\n", name, inst.Pattern, rep.MaxDepth, rep.RangeLoops)
	}
	fmt.Println("\nStructured graph traversals (skewed generator defaults; -run accepts any):")
	var graphs []string
	for name := range workloads.Registry {
		if strings.HasPrefix(name, "graph.") {
			graphs = append(graphs, name)
		}
	}
	sort.Strings(graphs)
	for _, name := range graphs {
		inst := workloads.Registry[name](1)
		rep := loopir.Analyze(inst.Kernels[0])
		fmt.Printf("  %-14s %-47s depth=%d ranges=%d\n", name, inst.Pattern, rep.MaxDepth, rep.RangeLoops)
	}
	fmt.Println("\nPattern files: -pattern FILE compiles Spatter-style gather/scatter JSON")
	fmt.Println("(see README \"Skewed graphs and pattern files\").")
}

func printConfig() {
	cfg := exp.Default(exp.DX)
	fmt.Println("Table 3 system configuration (DX100 variant):")
	fmt.Printf("  cores: %d x %d-wide, ROB %d, LQ %d, SQ %d\n",
		cfg.Cores, cfg.Core.Width, cfg.Core.ROB, cfg.Core.LQ, cfg.Core.SQ)
	fmt.Printf("  LLC: %d MB (baseline: %d MB)\n", cfg.LLCBytes>>20, exp.Default(exp.Baseline).LLCBytes>>20)
	d := cfg.DRAM
	fmt.Printf("  memory: %d channels DDR4-3200, %d bank groups x %d banks, %d B rows, request buffer %d/channel\n",
		d.Channels, d.BankGroups, d.Banks, d.RowBytes, d.RequestBuffer)
	fmt.Printf("  timing (tCK): tRP/tRCD=%d, tCCD_S/L=%d/%d, tRTP=%d, tRAS=%d, CL=%d\n",
		d.TRP, d.TCCDS, d.TCCDL, d.TRTP, d.TRAS, d.CL)
	a := cfg.Accel
	fmt.Printf("  DX100: %d tiles x %d elems, row table %dx%d per bank, %d ALU lanes, %d-entry TLB\n",
		a.Machine.Tiles, a.Machine.TileElems, a.RowTable.Rows, a.RowTable.Cols, a.ALULanes, a.TLBEntries)
}

func printTable4() {
	out, err := amodel.Format()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Table 4: DX100 area and power at 28 nm")
	fmt.Print(out)
}

// runFlags carries the -run output options from the flag block.
type runFlags struct {
	verbose, asJSON bool
	trace, metrics  string
	spanTrace       string
	profileWindow   int64
	timeline        string
	noFF            bool
	sampleInterval  int
	sampleDetail    int64
	sampleWarmup    int64
}

func runOne(name, patternPath, modeStr string, scale int, f runFlags) {
	m, err := exp.ParseMode(modeStr)
	if err != nil {
		fatal(err)
	}
	var opts exp.RunOptions
	var traceOut *os.File
	if f.trace != "" {
		traceOut, err = os.Create(f.trace)
		if err != nil {
			fatal(err)
		}
		sink := obs.NewSink(0)
		if strings.HasSuffix(f.trace, ".json") {
			sink.SpillChrome(traceOut)
		} else {
			sink.SpillJSONL(traceOut)
		}
		opts.Trace = sink
	}
	opts.ProfileWindow = sim.Cycle(f.profileWindow)
	if f.timeline != "" && opts.ProfileWindow == 0 {
		opts.ProfileWindow = prof.DefaultWindow
	}
	if f.sampleInterval > 0 {
		opts.Sampling = &exp.SamplingConfig{
			Interval: f.sampleInterval,
			Detail:   sim.Cycle(f.sampleDetail),
			Warmup:   sim.Cycle(f.sampleWarmup),
		}
	}
	var spanRec *span.Recorder
	var rootSpan *span.Span
	if f.spanTrace != "" {
		spanRec = span.NewRecorder(0)
		rootSpan = spanRec.Start("run "+modeStr, span.Context{})
		opts.OnPhase = span.PhaseSpans(spanRec, rootSpan.Context())
	}
	var stepping string
	if f.verbose {
		opts.OnEngineDone = func(e *sim.Engine) { stepping = steppingReport(e) }
	}
	opts.NoFastForward = f.noFF
	// Both paths run through exp.Spec so the Result — and therefore the
	// -json bytes — match what dx100d serves for the same submission.
	spec := exp.Spec{Workload: name, Scale: scale, Config: exp.Default(m)}
	if patternPath != "" {
		data, err := os.ReadFile(patternPath)
		if err != nil {
			fatal(err)
		}
		pf, err := pattern.Parse(data)
		if err != nil {
			fatal(err)
		}
		spec.Workload = ""
		spec.Pattern = pf
		name = pf.InstanceName()
	}
	res, err := spec.Run(opts)
	if err != nil {
		fatal(err)
	}
	if spanRec != nil {
		rootSpan.End()
		if err := writeSpanTrace(f.spanTrace, spanRec); err != nil {
			fatal(err)
		}
	}
	if traceOut != nil {
		if err := opts.Trace.Close(); err != nil {
			fatal(err)
		}
		if err := traceOut.Close(); err != nil {
			fatal(err)
		}
	}
	if f.metrics != "" {
		if err := writeMetrics(f.metrics, res); err != nil {
			fatal(err)
		}
	}
	if f.timeline != "" {
		if err := writeTimeline(f.timeline, res); err != nil {
			fatal(err)
		}
	}
	if f.asJSON {
		// The exact bytes dx100d serves for the same spec — the two
		// paths share exp.ResultJSON and the simulator is deterministic.
		b, err := exp.ResultJSON(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		return
	}
	fmt.Printf("%s on %s (scale %d):\n", name, modeStr, scale)
	fmt.Printf("  cycles:             %d\n", res.Cycles)
	fmt.Printf("  core instructions:  %.0f\n", res.Instructions)
	fmt.Printf("  DRAM bandwidth:     %.1f%%\n", 100*res.BWUtil)
	fmt.Printf("  row-buffer hits:    %.1f%%\n", 100*res.RBH)
	fmt.Printf("  buffer occupancy:   %.1f%%\n", 100*res.Occupancy)
	fmt.Printf("  L1 MPKI:            %.2f\n", res.MPKI)
	if res.Timeline != nil {
		fmt.Println()
		res.Timeline.WriteReport(os.Stdout)
		fmt.Println()
		res.Stalls.WriteReport(os.Stdout)
	}
	if f.verbose {
		fmt.Print(stepping)
		fmt.Println(res.Stats)
	}
}

// steppingReport summarizes how the engine covered the run's cycles:
// the share it stepped rather than jumped over, and the ticker types
// that most often kept it stepping by declining a jump.
func steppingReport(e *sim.Engine) string {
	var b strings.Builder
	now, visited := uint64(e.Now()), e.Visited()
	jumps, _ := e.FastForwarded()
	fmt.Fprintf(&b, "  visited cycles:     %d of %d (%.1f%%), %d jumps\n", visited, now, percent(visited, now), jumps)
	byType := map[string]uint64{}
	for _, d := range e.Declines() {
		byType[fmt.Sprintf("%T", d.Ticker)] += d.Cycles
	}
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if byType[types[i]] != byType[types[j]] {
			return byType[types[i]] > byType[types[j]]
		}
		return types[i] < types[j]
	})
	for i, t := range types {
		if i == 3 || byType[t] == 0 {
			break
		}
		fmt.Fprintf(&b, "  declined by %-18s %d visited cycles (%.1f%%)\n", t+":", byType[t], percent(byType[t], visited))
	}
	return b.String()
}

// percent is 100*n/of, or 0 when of is 0.
func percent(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// writeSpanTrace dumps the recorded lifecycle spans as a Chrome
// trace_event document.
func writeSpanTrace(path string, rec *span.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTimeline dumps the sampled timeline and the stall breakdown as
// one indented JSON document — the same objects a profiled Result
// carries on the wire, without the rest of the Result around them.
func writeTimeline(path string, res exp.Result) error {
	doc := struct {
		Timeline *prof.Timeline  `json:"timeline"`
		Stalls   *prof.Breakdown `json:"stall_breakdown"`
	}{res.Timeline, res.Stalls}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMetrics encodes the run's full metrics snapshot (counters plus
// the histograms the flat Result JSON leaves out): Prometheus text by
// default, JSON when the path ends in .json.
func writeMetrics(path string, res exp.Result) error {
	snap := res.Stats.Registry().Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(snap)
	} else {
		err = snap.WritePrometheus(f, "dx100_run_")
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runOnly names the flags that shape one -run or -pattern simulation.
// A figure builds its own runs, so it would ignore them.
var runOnly = map[string]bool{
	"mode": true, "json": true, "v": true, "noff": true,
	"trace": true, "span-trace": true, "metrics": true,
	"profile-window": true, "timeline": true,
	"sample-interval": true, "sample-detail": true, "sample-warmup": true,
}

// refuseRunFlags exits 2 when any of the set flags is a run-only one.
func refuseRunFlags(set []string) {
	for _, name := range set {
		if runOnly[name] {
			fmt.Fprintf(os.Stderr, "dx100sim: -%s applies to -run and -pattern, not to -fig\n", name)
			os.Exit(2)
		}
	}
}

func runFigure(r exp.Runner, fig string, scale int, names []string) {
	show(r.Figure(fig, scale, names))
}

func show(s *exp.Series, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dx100sim:", err)
	os.Exit(1)
}
