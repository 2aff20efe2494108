package exp

import (
	"context"
	"fmt"

	"dx100/internal/cache"
	"dx100/internal/cpu"
	"dx100/internal/dram"
	"dx100/internal/dx100"
	"dx100/internal/loopir"
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/obs/prof"
	"dx100/internal/prefetch"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// Result carries the measurements of one run — the quantities Figures
// 9-12 plot. The JSON form is the stable wire format shared by the
// dx100sim -json flag and the dx100d service (see ResultJSON).
type Result struct {
	Workload     string    `json:"workload"`
	Mode         Mode      `json:"mode"`
	Cycles       sim.Cycle `json:"cycles"`
	Instructions float64   `json:"instructions"`
	BWUtil       float64   `json:"bw_util"`
	RBH          float64   `json:"row_buffer_hit"`
	Occupancy    float64   `json:"occupancy"`
	MPKI         float64   `json:"mpki"`
	// Timeline and Stalls carry the simprof windowed telemetry and
	// cycle attribution when the run was profiled (RunOptions.
	// ProfileWindow > 0). Both are omitempty: an unprofiled run's wire
	// form is byte-identical to the pre-simprof format, which the
	// content-addressed cache and CLI/daemon identity rely on.
	Timeline *prof.Timeline  `json:"timeline,omitempty"`
	Stalls   *prof.Breakdown `json:"stall_breakdown,omitempty"`
	Stats    *sim.Stats      `json:"stats,omitempty"`
	// Sampling carries the interval sampler's estimates and confidence
	// intervals when the run was sampled (RunOptions.Sampling). For a
	// sampled run Cycles holds the *estimated* total (detailed cycles
	// plus functional instructions over the measured IPC), and the
	// cumulative DRAM-derived metrics cover the detailed windows only.
	Sampling *SamplingStats `json:"sampling,omitempty"`
}

// system is one assembled simulation.
type system struct {
	cfg    SystemConfig
	eng    *sim.Engine
	stats  *sim.Stats
	mem    *dram.System
	hier   *cache.Hierarchy
	cores  []*cpu.Core
	accels []*dx100.Accel
	dmps   []*prefetch.DMP
	// instr and spin are every core's instructions and spin_cycles
	// counters, in core order: what the Result, the progress samples,
	// the profiler and the sampler read.
	instr, spin []*sim.Counter
}

// total sums counters in order.
func total(cs []*sim.Counter) float64 {
	t := 0.0
	for _, c := range cs {
		t += c.Value()
	}
	return t
}

// build assembles the system around an already-generated workload
// instance.
func build(inst *workloads.Instance, cfg SystemConfig) *system {
	s := &system{cfg: cfg}
	s.eng = sim.NewEngine()
	s.eng.MaxCycles = cfg.MaxCycles
	s.stats = sim.NewStats()
	s.mem = dram.NewSystem(s.eng, cfg.DRAM, s.stats, "dram.")
	hcfg := cache.SkylakeLike(cfg.Cores, cfg.LLCBytes)
	s.hier = cache.NewHierarchy(s.eng, hcfg, s.mem, s.stats, "")

	var dir *dx100.RegionDirectory
	if cfg.Mode == DX && cfg.Instances > 1 {
		dir = dx100.NewRegionDirectory()
	}
	if cfg.Mode == DX {
		for i := 0; i < cfg.Instances; i++ {
			a := dx100.New(s.eng, cfg.Accel, inst.Space, s.mem, s.hier.LLC, s.hier, s.stats, fmt.Sprintf("dx100.%d.", i))
			if dir != nil {
				a.AttachDirectory(dir, i)
			}
			for _, r := range inst.Space.Regions() {
				a.TLB().Preload(r)
			}
			s.accels = append(s.accels, a)
		}
	}
	translate := inst.Space.Translate
	for i := 0; i < cfg.Cores; i++ {
		var front cache.Level = s.hier.L1[i]
		switch cfg.Mode {
		case DX:
			front = dx100.NewRouter(s.accels[i*cfg.Instances/cfg.Cores], s.hier.L1[i])
		case DMP:
			// DMP observes the core's demand stream and prefetches
			// into its L2 (§6.3).
			d := prefetch.New(cfg.DMP, inst.Space, s.hier.L1[i], s.hier.L2[i], s.stats, "dmp.")
			for _, p := range inst.DMP() {
				d.Register(p)
			}
			s.dmps = append(s.dmps, d)
			front = d
		}
		prefix := fmt.Sprintf("core%d.", i)
		s.cores = append(s.cores, cpu.NewCore(s.eng, cfg.Core, front, translate, s.stats, prefix))
		s.instr = append(s.instr, s.stats.Counter(prefix+"instructions"))
		s.spin = append(s.spin, s.stats.Counter(prefix+"spin_cycles"))
	}
	return s
}

// allDone reports whether every core has retired its stream and every
// accelerator has drained — the run-termination predicate.
func (s *system) allDone() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	for _, a := range s.accels {
		if !a.Idle() {
			return false
		}
	}
	return true
}

// run drives the engine until every core has retired its stream.
func (s *system) run() (sim.Cycle, error) {
	return s.eng.Run(s.allDone)
}

// collect folds the statistics into a Result.
func (s *system) collect(name string, end sim.Cycle) Result {
	instr := total(s.instr)
	mpki := 0.0
	if instr > 0 {
		mpki = s.stats.Get("l1d.misses") / (instr / 1000)
	}
	return Result{
		Workload:     name,
		Mode:         s.cfg.Mode,
		Cycles:       end,
		Instructions: instr,
		BWUtil:       s.mem.BandwidthUtilization(),
		RBH:          s.mem.RowBufferHitRate(),
		Occupancy:    s.mem.Occupancy(),
		MPKI:         mpki,
		Stats:        s.stats,
	}
}

// Run generates the workload at the given scale and executes it on the
// configured system.
func Run(name string, scale int, cfg SystemConfig) (Result, error) {
	return RunOpts(name, scale, cfg, RunOptions{})
}

// RunOpts is Run with cooperative cancellation and progress reporting.
func RunOpts(name string, scale int, cfg SystemConfig, opts RunOptions) (Result, error) {
	b, ok := workloads.Registry[name]
	if !ok {
		return Result{}, fmt.Errorf("exp: unknown workload %q", name)
	}
	return RunInstanceOpts(b(scale), cfg, opts)
}

// ProgressSample is one observation of a running simulation — the
// payload of the dx100d event stream.
type ProgressSample struct {
	Cycles       sim.Cycle `json:"cycles"`
	Instructions float64   `json:"instructions"`
	DRAMReads    float64   `json:"dram_reads"`
	DRAMWrites   float64   `json:"dram_writes"`
}

// RunOptions carries the run services that cannot change a Result —
// cancellation, progress sampling, exact stepping and the observation
// hooks — plus Sampling, which can (a Spec carries it in its content
// address). The zero value installs nothing and is byte-identical to a
// plain run.
type RunOptions struct {
	// Context, when non-nil, cancels the run: the engine polls it at
	// progress cadence and aborts with the context's error wrapped.
	Context context.Context
	// NoFastForward forces exact cycle-by-cycle stepping. Results are
	// identical either way (the fast-forward equivalence tests pin
	// this); exact stepping is their reference, and dx100sim -run
	// -noff exposes it for debugging wake-hint bugs.
	NoFastForward bool
	// Progress, when non-nil, receives a sample roughly every
	// ProgressEvery simulated cycles. It is called from the simulating
	// goroutine and must not block for long.
	Progress func(ProgressSample)
	// ProgressEvery is the sampling interval in simulated cycles;
	// zero selects 2M cycles (~sub-second wall clock on every model).
	ProgressEvery sim.Cycle
	// Trace, when non-nil, receives structured events from every
	// component: DRAM commands, cache fills/evictions, DX100
	// enqueue/drain, engine fast-forward jumps. Tracing is observation
	// only — a run with a sink attached produces byte-identical Results
	// (TestTraceResultNeutral pins this).
	Trace *obs.Sink
	// ProfileWindow, when positive, enables simprof: the run's Result
	// gains a windowed telemetry Timeline (one row roughly every
	// ProfileWindow simulated cycles) and a per-core stall Breakdown.
	// Profiling is observation only — modulo the Timeline/Stalls fields
	// themselves, a profiled run's Result is byte-identical to a plain
	// run's (TestProfileResultNeutral pins this). Use
	// prof.DefaultWindow when no particular resolution is needed.
	ProfileWindow sim.Cycle
	// OnSample, when non-nil (and profiling is enabled), observes every
	// timeline row as it is recorded: the measurement-relative cycle,
	// the probe names (shared slice, do not mutate) and the row values
	// (valid only during the call). It runs on the simulating
	// goroutine; dx100d uses it to stream live timeline events.
	OnSample func(cycle uint64, names []string, values []float64)
	// OnEngineDone, when non-nil, observes the engine right after the
	// run completes, before the Result is collected. It exists for
	// tests and benchmarks that read scheduler telemetry outside the
	// Result wire form (FastForwarded) and must not mutate anything.
	OnEngineDone func(*sim.Engine)
	// Sampling, when non-nil, runs the simulation under SMARTS-style
	// interval sampling: detailed measurement windows alternating with
	// functional fast-forward phases. The Result's Cycles becomes an
	// estimate and Result.Sampling carries the per-window confidence
	// intervals. Sampling changes what is simulated, so — unlike every
	// other option here — a sampled Result is *not* byte-identical to a
	// full-detail run; it trades exactness for wall clock.
	Sampling *SamplingConfig
	// OnPhase, when non-nil, observes the run's lifecycle phases as
	// begin/end pairs: "warmup" around the LLC warm-up (reported on
	// every run, empty when WarmLLC is off), and under interval
	// sampling "sample.detail" / "sample.functional" around every
	// window. Phases nest strictly, so a span stack reconstructs the
	// hierarchy — dx100d turns them into lifecycle spans on the job's
	// trace (TestOnPhaseLifecycle pins the sequence). Called from the
	// simulating goroutine; like every hook here it is observation only
	// and must not mutate the run.
	OnPhase func(phase string, begin bool)
}

// phase invokes the OnPhase hook when installed.
func (o RunOptions) phase(name string, begin bool) {
	if o.OnPhase != nil {
		o.OnPhase(name, begin)
	}
}

// attachTrace hooks every component's emit sites to the sink. A nil
// sink is a no-op: components keep their nil default and pay only the
// guard branch.
func (s *system) attachTrace(sink *obs.Sink) {
	if sink == nil {
		return
	}
	s.eng.Trace = sink
	s.mem.AttachTrace(sink)
	s.hier.AttachTrace(sink)
	for _, a := range s.accels {
		a.AttachTrace(sink)
	}
}

// installCheck wires the options into the engine's cooperative hook,
// composing up to three concerns with independent cadences:
// cancellation polls on every check, progress samples at ProgressEvery,
// and the profiler samples at its window. CheckEvery is the smallest
// enabled cadence; each concern keeps its own next-due threshold, so
// enabling profiling at a fine window does not multiply progress
// events. The hook only reads statistics counters, so installing it
// cannot perturb results (TestCheckResultNeutral pins the engine side,
// TestRunOptsResultNeutral and TestProfileResultNeutral the exp side).
func (s *system) installCheck(opts RunOptions, p *profiler) {
	wantProgress := opts.Context != nil || opts.Progress != nil
	if !wantProgress && p == nil {
		return
	}
	interval := opts.ProgressEvery
	if interval == 0 {
		interval = 2_000_000
	}
	var checkEvery sim.Cycle
	if wantProgress {
		checkEvery = interval
	}
	if p != nil {
		if w := sim.Cycle(p.sampler.Window()); checkEvery == 0 || w < checkEvery {
			checkEvery = w
		}
	}
	s.eng.CheckEvery = checkEvery
	reads := s.stats.Counter("dram.reads")
	writes := s.stats.Counter("dram.writes")
	var nextProgress sim.Cycle
	s.eng.Check = func(now sim.Cycle) error {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return fmt.Errorf("exp: run canceled at cycle %d: %w", now, err)
			}
		}
		if opts.Progress != nil && now >= nextProgress {
			nextProgress = now + interval
			opts.Progress(ProgressSample{
				Cycles:       now,
				Instructions: total(s.instr),
				DRAMReads:    reads.Value(),
				DRAMWrites:   writes.Value(),
			})
		}
		p.maybeSample(now)
		return nil
	}
}

// warmLLC touches every line of every allocated region through the
// LLC, then resets the statistics (§6.1 All-Hit scenario). The
// warm-up is functional — pure tag/LRU installs with no events or
// cycles — so the engine clock stays at zero.
func (s *system) warmLLC(inst *workloads.Instance) {
	// The accelerators' scratchpads are not cacheable data. They are
	// known by address: region names carry the workload's name.
	spd := make(map[memspace.PAddr]bool, len(s.accels))
	for _, a := range s.accels {
		lo, _ := a.SPDRange()
		spd[lo] = true
	}
	for _, r := range inst.Space.Regions() {
		lo := inst.Space.Translate(r.Base)
		if spd[lo] {
			continue
		}
		for a := memspace.LineAddr(lo); a < lo+memspace.PAddr(r.Size); a += memspace.LineSize {
			s.hier.LLC.Touch(a, cache.Load)
		}
	}
	s.stats.Reset()
}

// RunInstance executes an already-built instance.
func RunInstance(inst *workloads.Instance, cfg SystemConfig) (Result, error) {
	return RunInstanceOpts(inst, cfg, RunOptions{})
}

// RunInstanceOpts executes an already-built instance with cooperative
// cancellation and progress reporting.
func RunInstanceOpts(inst *workloads.Instance, cfg SystemConfig, opts RunOptions) (Result, error) {
	s := build(inst, cfg)
	s.eng.DisableFastForward = opts.NoFastForward
	var p *profiler
	if opts.ProfileWindow > 0 {
		p = newProfiler(s, inst, opts)
	}
	s.installCheck(opts, p)
	s.attachTrace(opts.Trace)
	opts.phase("warmup", true)
	if cfg.WarmLLC {
		s.warmLLC(inst)
	}
	opts.phase("warmup", false)
	start := s.eng.Now()
	if p != nil {
		// Arm after the warm-up: its statistics were just reset, so the
		// first window's baselines belong to the measured run. The cores
		// never tick while streamless, so the attribution accounts see
		// exactly the measured cycles.
		p.begin(start)
	}
	switch cfg.Mode {
	case Baseline, DMP:
		if err := s.attachBaselineStreams(inst); err != nil {
			return Result{}, err
		}
	case DX:
		if err := s.attachDXStreams(inst); err != nil {
			return Result{}, err
		}
	}
	var (
		end sim.Cycle
		sst *SamplingStats
		err error
	)
	if opts.Sampling != nil {
		end, sst, err = s.runSampled(*opts.Sampling, opts.phase)
	} else {
		end, err = s.run()
	}
	if err != nil {
		return Result{}, fmt.Errorf("exp: %s/%s: %w", inst.Name, cfg.Mode, err)
	}
	if opts.OnEngineDone != nil {
		opts.OnEngineDone(s.eng)
	}
	res := s.collect(inst.Name, end-start)
	if p != nil {
		res.Timeline, res.Stalls = p.finish(end)
	}
	if sst != nil {
		res.Sampling = sst
		res.Cycles = sst.EstimatedCycles
	}
	return res, nil
}

// seqStream concatenates streams.
type seqStream struct {
	parts []cpu.Stream
	idx   int
}

func (s *seqStream) Next(op *cpu.MicroOp) bool {
	for s.idx < len(s.parts) {
		if s.parts[s.idx].Next(op) {
			return true
		}
		s.idx++
	}
	return false
}

// partBounds returns part's share of kernel k's outer iterations: the
// part-th of parts contiguous ranges, whose sizes differ by at most one.
func partBounds(k *loopir.Kernel, part, parts int) (lo, hi int64, err error) {
	lo, hi, err = loopir.InterpretBounds(k, &loopir.Env{Params: k.Params})
	if err != nil {
		return 0, 0, err
	}
	span := hi - lo
	return lo + span*int64(part)/int64(parts), lo + span*int64(part+1)/int64(parts), nil
}

// attachBaselineStreams partitions each kernel's outer iterations
// across the cores, with a global barrier between kernels.
func (s *system) attachBaselineStreams(inst *workloads.Instance) error {
	n := s.cfg.Cores
	kernelDone := make([]int, len(inst.Kernels))
	for c := 0; c < n; c++ {
		var parts []cpu.Stream
		for ki, k := range inst.Kernels {
			lo, hi, err := partBounds(k, c, n)
			if err != nil {
				return err
			}
			g, err := loopir.NewUopGen(k, inst.Binder, inst.Space, lo, hi, inst.AtomicRMW && n > 1)
			if err != nil {
				return err
			}
			ki := ki
			parts = append(parts,
				g,
				// Fence, signal completion, wait for the other cores.
				&cpu.SliceStream{Ops: []cpu.MicroOp{
					{Kind: cpu.Barrier},
					{Kind: cpu.Effect, Dep1: 1, Emit: func(sim.Cycle) { kernelDone[ki]++ }},
					{Kind: cpu.Barrier, Ready: func() bool { return kernelDone[ki] >= n }},
				}},
			)
		}
		s.cores[c].Run(&seqStream{parts: parts})
	}
	return nil
}
