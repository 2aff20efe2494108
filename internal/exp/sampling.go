package exp

import (
	"dx100/internal/sample"
	"dx100/internal/sim"
)

// SMARTS-style interval sampling (Wunderlich et al., ISCA '03): the
// run alternates short detailed measurement windows with long
// functional fast-forward phases. Each window contributes one sample
// of IPC, bandwidth utilization and spin fraction; the samples fold
// into means with 95% confidence intervals, and the run's total cycle
// count is estimated as the detailed cycles actually simulated plus
// the functionally executed instructions over the measured mean IPC.
//
// Handing the machine between the two modes uses the drain protocol
// documented in internal/cpu/sample.go: fetch pauses, the engine runs
// until the machine is quiescent (no events, caches and DRAM quiet,
// accelerators idle, core windows drained or parked on a barrier),
// the functional executor advances every core by the interval quota,
// and fetch resumes. The engine clock does not advance during
// functional phases, so cumulative DRAM-derived metrics (bandwidth,
// row-buffer hit rate, occupancy) remain well-defined over exactly
// the detailed cycles.

// SamplingConfig parameterizes the interval sampler. It is part of
// the Spec wire format (and therefore of the dx100d content hash):
// two submissions sampling differently are different experiments.
type SamplingConfig struct {
	// Interval is the functional fast-forward quantum between detailed
	// windows, in instruction weight per core; <= 0 selects 200k.
	Interval int `json:"interval"`
	// Detail is the measured portion of each detailed window, in
	// cycles; <= 0 selects 20k.
	Detail sim.Cycle `json:"detail"`
	// Warmup is the unmeasured detailed prefix of each window, re-
	// warming microarchitectural state (cache timing, row buffers,
	// queue depths) after a functional phase before measurement
	// starts. Zero means measure immediately.
	Warmup sim.Cycle `json:"warmup,omitempty"`
}

// withDefaults resolves unset knobs to the package defaults.
func (c SamplingConfig) withDefaults() SamplingConfig {
	if c.Interval <= 0 {
		c.Interval = 200_000
	}
	if c.Detail <= 0 {
		c.Detail = 20_000
	}
	return c
}

// SamplingStats reports what the sampler measured and estimated.
type SamplingStats struct {
	// Windows is the number of detailed windows that contributed
	// samples.
	Windows int `json:"windows"`
	// DetailedCycles is how many cycles ran under full detail
	// (including per-window warm-up).
	DetailedCycles sim.Cycle `json:"detailed_cycles"`
	// FunctionalInstructions is the total instruction weight executed
	// functionally, across all cores.
	FunctionalInstructions float64 `json:"functional_instructions"`
	// EstimatedCycles is the estimate of the full-detail run length:
	// DetailedCycles + FunctionalInstructions / (cores × IPC.Mean).
	EstimatedCycles sim.Cycle `json:"estimated_cycles"`
	// IPC is per-core instructions per cycle across windows.
	IPC sample.CI `json:"ipc"`
	// BWUtil is DRAM bandwidth utilization across windows.
	BWUtil sample.CI `json:"bw_util"`
	// SpinFrac is the fraction of core cycles spent spinning on
	// barriers across windows.
	SpinFrac sample.CI `json:"spin_frac"`
}

// quiescent reports whether the machine has fully drained: no pending
// events, caches and DRAM quiet, accelerators idle, and every core at
// a functional handoff point. With fetch paused this is the state the
// engine converges to.
func (s *system) quiescent() bool {
	if s.eng.EventsPending() {
		return false
	}
	if !s.hier.Quiet() || !s.mem.Quiet() {
		return false
	}
	for _, a := range s.accels {
		if !a.Idle() {
			return false
		}
	}
	for _, c := range s.cores {
		if !c.Quiesced() {
			return false
		}
	}
	return true
}

// drainAccels functionally executes everything queued at the
// accelerators, returning how many instructions were drained. It is
// the executor's barrier-unblocking hook.
func (s *system) drainAccels() int {
	n := 0
	for _, a := range s.accels {
		n += a.FunctionalDrain()
	}
	return n
}

// runSampled drives the engine under interval sampling until every
// core has retired its stream, detailed or functionally. It returns
// the engine cycle at completion (detailed cycles only — the clock
// freezes during functional phases) and the sampler's statistics.
// onPhase, when non-nil, observes every detailed and functional phase
// as begin/end pairs ("sample.detail" / "sample.functional") — the
// lifecycle-span feed.
func (s *system) runSampled(scfg SamplingConfig, onPhase func(string, bool)) (sim.Cycle, *SamplingStats, error) {
	scfg = scfg.withDefaults()
	phase := func(name string, begin bool) {
		if onPhase != nil {
			onPhase(name, begin)
		}
	}
	ex := &sample.Executor{Eng: s.eng, Cores: s.cores, Drain: s.drainAccels}
	done := s.allDone
	start := s.eng.Now()
	st := &SamplingStats{}
	var ipcs, bws, spins []float64

	peak := s.mem.PeakBytesPerCycle()

	for !done() {
		// Detailed window: unmeasured warm-up first, then measurement.
		// RunUntil (not a Now() >= edge predicate) so the window edges
		// land on exactly the same cycle with fast-forward on and off —
		// a caller-side predicate overshoots by a jump-dependent amount,
		// which would make sampled estimates depend on the stepping
		// strategy.
		phase("sample.detail", true)
		if scfg.Warmup > 0 {
			if _, err := s.eng.RunUntil(s.eng.Now()+scfg.Warmup, done); err != nil {
				phase("sample.detail", false)
				return 0, nil, err
			}
		}
		m0 := s.eng.Now()
		i0, sp0 := total(s.instr), total(s.spin)
		b0, dc0 := s.stats.Get("dram.bytes"), s.stats.Get("dram.cycles")
		if _, err := s.eng.RunUntil(m0+scfg.Detail, done); err != nil {
			phase("sample.detail", false)
			return 0, nil, err
		}
		phase("sample.detail", false)
		// The run can end inside the window; measure the cycles that
		// actually elapsed.
		if dc := float64(s.eng.Now() - m0); dc > 0 {
			st.Windows++
			ipcs = append(ipcs, (total(s.instr)-i0)/(dc*float64(len(s.cores))))
			spins = append(spins, (total(s.spin)-sp0)/(dc*float64(len(s.cores))))
			if dd := s.stats.Get("dram.cycles") - dc0; dd > 0 {
				bws = append(bws, (s.stats.Get("dram.bytes")-b0)/(dd*peak))
			} else {
				bws = append(bws, 0)
			}
		}
		if done() {
			break
		}
		// Hand over: stop fetch, let in-flight work complete under
		// detailed timing, then fast-forward functionally.
		phase("sample.functional", true)
		ex.Pause()
		if _, err := s.eng.Run(func() bool { return done() || s.quiescent() }); err != nil {
			ex.Resume()
			phase("sample.functional", false)
			return 0, nil, err
		}
		if done() {
			ex.Resume()
			phase("sample.functional", false)
			break
		}
		w, allDone := ex.Advance(scfg.Interval)
		st.FunctionalInstructions += float64(w)
		ex.Resume()
		phase("sample.functional", false)
		if allDone {
			break
		}
	}

	end := s.eng.Now()
	st.DetailedCycles = end - start
	st.IPC = sample.Summarize(ipcs)
	st.BWUtil = sample.Summarize(bws)
	st.SpinFrac = sample.Summarize(spins)
	est := end - start
	if st.IPC.Mean > 0 {
		est += sim.Cycle(st.FunctionalInstructions / (st.IPC.Mean * float64(len(s.cores))))
	}
	st.EstimatedCycles = est
	return end, st, nil
}
