package exp

import (
	"fmt"

	"dx100/internal/obs"
	"dx100/internal/obs/prof"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// profiler owns one run's simprof state: the windowed sampler with its
// probes over the system's registries, and the per-core cycle
// attribution accounts. It is built before the warm-up (so the cores
// carry their accounts from the first measured cycle) but armed only
// when measurement starts, so warm-up traffic never pollutes the first
// window's baselines.
type profiler struct {
	sampler  *prof.Sampler
	accounts []*prof.CoreAccount
	eng      *sim.Engine
	armed    bool
	startAbs uint64 // absolute engine cycle of measurement start
}

// newProfiler wires the timeline probes: DRAM bandwidth utilization
// and row-hit rate as windowed ratios (mirroring the run-level
// formulas in dram.System), per-channel request-buffer occupancy as
// instantaneous gauges, cache MPKI over the window's instructions,
// the DX100 request-queue depth, tile utilization/occupancy, the
// engine's fast-forward skip ratio, and — when the instance carries a
// hub/tail classifier — per-access-class LLC hit attribution. Probes
// only read counters and queue lengths — sampling cannot perturb the
// run (TestProfileResultNeutral pins this).
func newProfiler(s *system, inst *workloads.Instance, opts RunOptions) *profiler {
	p := &profiler{sampler: prof.NewSampler(uint64(opts.ProfileWindow))}
	for _, c := range s.cores {
		a := &prof.CoreAccount{}
		c.AttachProfile(a)
		p.accounts = append(p.accounts, a)
	}

	st := s.stats
	bytes := st.Counter("dram.bytes")
	dcycles := st.Counter("dram.cycles")
	peak := s.mem.PeakBytesPerCycle()
	p.sampler.Ratio("bw_util",
		func() float64 { return bytes.Value() },
		func() float64 { return dcycles.Value() * peak })

	hits := st.Counter("dram.rowhits")
	miss := st.Counter("dram.rowmisses")
	conf := st.Counter("dram.rowconflicts")
	p.sampler.Ratio("row_buffer_hit",
		func() float64 { return hits.Value() },
		func() float64 { return hits.Value() + miss.Value() + conf.Value() })

	for i := 0; i < s.mem.Channels(); i++ {
		i := i
		p.sampler.Gauge(fmt.Sprintf("chan%d.queue", i),
			func() float64 { return float64(s.mem.ChannelQueueLen(i)) })
	}

	l1m := st.Counter("l1d.misses")
	p.sampler.Ratio("mpki",
		func() float64 { return 1000 * l1m.Value() },
		func() float64 { return total(s.instr) })

	if len(s.accels) > 0 {
		accels := s.accels
		p.sampler.Gauge("dx100.queue", func() float64 {
			t := 0
			for _, a := range accels {
				t += a.QueueLen()
			}
			return float64(t)
		})
		// Tile utilization (busy fraction across all instances) and mean
		// fill of the busy tiles, both instantaneous gauges — the
		// primary evidence of the skew-collapse audit in ROADMAP
		// (chunking sized by the capped hub degree underfills tiles).
		tiles := float64(len(accels) * s.cfg.Accel.Machine.Tiles)
		p.sampler.Gauge("dx100.tile_util", func() float64 {
			busy := 0
			for _, a := range accels {
				busy += a.TilesBusy()
			}
			return float64(busy) / tiles
		})
		p.sampler.Gauge("dx100.tile_occupancy", func() float64 {
			busy, fill := 0, 0.0
			for _, a := range accels {
				busy += a.TilesBusy()
				fill += a.TileFill()
			}
			if busy == 0 {
				return 0
			}
			return fill / float64(busy)
		})
	}

	// Hub/tail hit attribution: when the workload marks its hot node
	// set (skewed graphs), classify the LLC's demand hits and misses
	// per class. The class counters belong to the profiler, not to the
	// run's stats, so the Result wire form never sees them, which
	// TestSpanResultNeutral and the byte-identity pins rely on.
	if inst != nil && inst.HotClass != nil {
		var hubH, hubM, tailH, tailM sim.Counter
		s.hier.LLC.SetAccessClasses(inst.HotClass,
			[]*sim.Counter{&hubH, &tailH}, []*sim.Counter{&hubM, &tailM})
		p.sampler.Ratio("llc.hub_hit_rate",
			func() float64 { return hubH.Value() },
			func() float64 { return hubH.Value() + hubM.Value() })
		p.sampler.Ratio("llc.tail_hit_rate",
			func() float64 { return tailH.Value() },
			func() float64 { return tailH.Value() + tailM.Value() })
		p.sampler.Ratio("llc.hub_access_frac",
			func() float64 { return hubH.Value() + hubM.Value() },
			func() float64 {
				return hubH.Value() + hubM.Value() + tailH.Value() + tailM.Value()
			})
	}

	eng := s.eng
	p.eng = eng
	p.sampler.Ratio("ff_skip",
		func() float64 { _, skipped := eng.FastForwarded(); return float64(skipped) },
		func() float64 { return float64(eng.Now()) })

	// One fan-out point for every recorded row: the caller's OnSample
	// (dx100d's live SSE stream) and, when a trace sink is attached,
	// one Chrome-overlay counter event per probe.
	userSample := opts.OnSample
	sink := opts.Trace
	if userSample != nil || sink != nil {
		p.sampler.OnSample = func(cycle uint64, names []string, values []float64) {
			if sink != nil {
				// Trace events are stamped with absolute engine cycles,
				// so the counter tracks line up with the DRAM/cache
				// events of the same trace.
				for i, name := range names {
					sink.Emit(obs.CounterEvent(cycle+p.startAbs, name, values[i]))
				}
			}
			if userSample != nil {
				userSample(cycle, names, values)
			}
		}
	}
	return p
}

// begin arms the sampler at measurement start (after any warm-up, whose
// statistics were just reset).
func (p *profiler) begin(start sim.Cycle) {
	p.startAbs = uint64(start)
	p.sampler.Begin(uint64(start))
	p.armed = true
}

// maybeSample records a row when one is due. Nil-receiver safe, so the
// engine check hook calls it unconditionally.
func (p *profiler) maybeSample(now sim.Cycle) {
	if p == nil || !p.armed {
		return
	}
	if p.sampler.Due(uint64(now)) {
		p.sampler.Sample(uint64(now))
	}
}

// finish flushes the tail window and folds the attribution accounts.
func (p *profiler) finish(end sim.Cycle) (*prof.Timeline, *prof.Breakdown) {
	return p.sampler.Finish(uint64(end)), prof.NewBreakdown(p.accounts)
}
