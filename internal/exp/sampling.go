package exp

import (
	"math"

	"dx100/internal/cpu"
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
// functionalPhase advances every core by the interval quota, and fetch
// resumes. The engine clock does not advance during functional phases,
// so cumulative DRAM-derived metrics (bandwidth, row-buffer hit rate,
// occupancy) remain well-defined over exactly the detailed cycles.

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
	IPC CI `json:"ipc"`
	// BWUtil is DRAM bandwidth utilization across windows.
	BWUtil CI `json:"bw_util"`
	// SpinFrac is the fraction of core cycles spent spinning on
	// barriers across windows.
	SpinFrac CI `json:"spin_frac"`
}

// CI is a mean with a symmetric 95% confidence half-interval over n
// samples.
type CI struct {
	Mean float64 `json:"mean"`
	Half float64 `json:"half"` // 95% half-width: mean ± half
	N    int     `json:"n"`
}

// summarize folds interval samples into a CI using the normal
// approximation (z = 1.96), the standard SMARTS treatment for the
// 30+ windows a sampled run takes. Fewer than two samples yield a
// zero interval.
func summarize(xs []float64) CI {
	n := len(xs)
	if n == 0 {
		return CI{}
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(n)
	if n < 2 {
		return CI{Mean: mean, N: n}
	}
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return CI{Mean: mean, Half: 1.96 * sd / math.Sqrt(float64(n)), N: n}
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
// accelerators and reports whether it drained anything. It is the hook
// a barrier-blocked core calls during a functional phase, since
// accelerator progress (tile ready bits, queue credits, retirement
// counts) is what core-side barrier predicates poll.
func (s *system) drainAccels() bool {
	n := 0
	for _, a := range s.accels {
		n += a.FunctionalDrain()
	}
	return n > 0
}

// functionalPhase runs one functional phase at the frozen cycle now:
// each core executes up to quota instruction weight with architectural
// side effects only, no cycles. Parked window entries left from the
// detailed drain are consumed first and count toward the quota. The
// phase ends when every core has reached its quota, finished its
// stream, or blocked on a barrier that neither drain nor a peer can
// satisfy this phase (the peer already reached quota). It returns the
// total weight executed and whether every core finished its stream.
func functionalPhase(cores []*cpu.Core, quota int, now sim.Cycle, drain func() bool) (executed int, allDone bool) {
	used := make([]int, len(cores))
	for progress := true; progress; {
		progress = false
		for i, c := range cores {
			if used[i] >= quota || c.Done() {
				continue
			}
			w := c.RunFunctional(quota-used[i], now, drain)
			used[i] += w
			executed += w
			progress = progress || w > 0
		}
	}
	// Every unfinished core has reached its quota, finished, or is
	// barrier-blocked with the accelerators drained. A blocked core
	// waits on work from a peer that reached its quota, so the next
	// detailed window (or functional phase) resolves it; a genuine
	// program deadlock surfaces identically in a full-detail run.
	for _, c := range cores {
		if !c.Done() {
			return executed, false
		}
	}
	return executed, true
}

// runSampled drives the engine under interval sampling until every
// core has retired its stream, detailed or functionally. It returns
// the engine cycle at completion (detailed cycles only — the clock
// freezes during functional phases) and the sampler's statistics.
// phase observes every detailed and functional phase as one begin/end
// pair ("sample.detail" / "sample.functional") — the lifecycle-span
// feed.
func (s *system) runSampled(scfg SamplingConfig, phase func(string, bool)) (sim.Cycle, *SamplingStats, error) {
	scfg = scfg.withDefaults()
	done := s.allDone
	start := s.eng.Now()
	st := &SamplingStats{}
	var ipcs, bws, spins []float64

	peak := s.mem.PeakBytesPerCycle()

	// detail runs one detailed window: unmeasured warm-up first, then
	// measurement. RunUntil (not a Now() >= edge predicate) so the
	// window edges land on exactly the same cycle with fast-forward on
	// and off — a caller-side predicate overshoots by a jump-dependent
	// amount, which would make sampled estimates depend on the stepping
	// strategy.
	detail := func() error {
		if scfg.Warmup > 0 {
			if _, err := s.eng.RunUntil(s.eng.Now()+scfg.Warmup, done); err != nil {
				return err
			}
		}
		m0 := s.eng.Now()
		i0, sp0 := total(s.instr), total(s.spin)
		b0, dc0 := s.stats.Get("dram.bytes"), s.stats.Get("dram.cycles")
		if _, err := s.eng.RunUntil(m0+scfg.Detail, done); err != nil {
			return err
		}
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
		return nil
	}
	// functional hands over: it stops fetch, lets in-flight work
	// complete under detailed timing, then fast-forwards functionally.
	// It reports whether the run is over.
	functional := func() (bool, error) {
		for _, c := range s.cores {
			c.Pause()
		}
		defer func() {
			for _, c := range s.cores {
				c.Resume()
			}
		}()
		if _, err := s.eng.Run(func() bool { return done() || s.quiescent() }); err != nil {
			return false, err
		}
		if done() {
			return true, nil
		}
		w, allDone := functionalPhase(s.cores, scfg.Interval, s.eng.Now(), s.drainAccels)
		st.FunctionalInstructions += float64(w)
		return allDone, nil
	}

	for !done() {
		phase("sample.detail", true)
		err := detail()
		phase("sample.detail", false)
		if err != nil {
			return 0, nil, err
		}
		if done() {
			break
		}
		phase("sample.functional", true)
		over, err := functional()
		phase("sample.functional", false)
		if err != nil {
			return 0, nil, err
		}
		if over {
			break
		}
	}

	end := s.eng.Now()
	st.DetailedCycles = end - start
	st.IPC = summarize(ipcs)
	st.BWUtil = summarize(bws)
	st.SpinFrac = summarize(spins)
	est := end - start
	if st.IPC.Mean > 0 {
		est += sim.Cycle(st.FunctionalInstructions / (st.IPC.Mean * float64(len(s.cores))))
	}
	st.EstimatedCycles = est
	return end, st, nil
}
