package dram

import (
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// System is a multi-channel DDR4 memory system driven by the
// simulation engine. It accepts line-granularity requests through
// Submit and schedules their completion callbacks; one DRAM command
// per channel may issue each DRAM cycle, chosen by FR-FCFS over the
// bounded request buffer.
type System struct {
	p      Params
	m      *Mapper
	eng    *sim.Engine
	stats  *sim.Stats
	prefix string
	chans  []*channel

	// Per-DRAM-cycle counter handles, resolved once so the tick loop
	// does no string concatenation or map lookups.
	cCycles    *sim.Counter
	cOccupancy *sim.Counter
	cRefreshes *sim.Counter
	cPre       *sim.Counter
	cAct       *sim.Counter
	cRowHits   *sim.Counter
	cRowMiss   *sim.Counter
	cRowConfl  *sim.Counter
	cReads     *sim.Counter
	cWrites    *sim.Counter
	cBytes     *sim.Counter

	// hOccupancy is the request-buffer occupancy distribution, one
	// observation per channel per DRAM cycle. It lives in the run's
	// Stats (their Snapshot carries it) but not in the Result JSON.
	hOccupancy *obs.Histogram

	// trace, when non-nil, receives one event per issued DRAM command
	// (ACT/PRE/RD/WR/REF with bank coordinates and the DRAM cycle).
	// The protocol-checker tests consume it to verify the JEDEC timing
	// invariants; every emit site is nil-guarded so the simulation fast
	// path pays one branch when tracing is off.
	trace *obs.Sink
}

// NewSystem builds a memory system on the engine, registered as a
// ticker. Statistics are reported into stats under prefix (e.g.
// "dram.").
func NewSystem(eng *sim.Engine, p Params, stats *sim.Stats, prefix string) *System {
	s := &System{p: p, m: NewMapper(p), eng: eng, stats: stats, prefix: prefix}
	s.cCycles = stats.Counter(prefix + "cycles")
	s.cOccupancy = stats.Counter(prefix + "occupancy_sum")
	s.cRefreshes = stats.Counter(prefix + "refreshes")
	s.cPre = stats.Counter(prefix + "pre")
	s.cAct = stats.Counter(prefix + "act")
	s.cRowHits = stats.Counter(prefix + "rowhits")
	s.cRowMiss = stats.Counter(prefix + "rowmisses")
	s.cRowConfl = stats.Counter(prefix + "rowconflicts")
	s.cReads = stats.Counter(prefix + "reads")
	s.cWrites = stats.Counter(prefix + "writes")
	s.cBytes = stats.Counter(prefix + "bytes")
	s.hOccupancy = stats.Histogram(prefix+"occupancy", obs.ExpBounds(p.RequestBuffer))
	for i := 0; i < p.Channels; i++ {
		ch := newChannel(p)
		ch.idx = i
		s.chans = append(s.chans, ch)
	}
	eng.Register(s)
	return s
}

// AttachTrace directs DRAM command events into sink (nil detaches).
func (s *System) AttachTrace(sink *obs.Sink) { s.trace = sink }

// Params returns the system configuration.
func (s *System) Params() Params { return s.p }

// Mapper returns the address mapper (shared with DX100's address
// decoder).
func (s *System) Mapper() *Mapper { return s.m }

// CanAccept reports whether the channel owning pa has buffer space.
func (s *System) CanAccept(pa memspace.PAddr) bool {
	return !s.chans[s.m.Map(pa).Channel].full()
}

// QueueLen returns the request-buffer occupancy of the channel owning
// pa.
func (s *System) QueueLen(pa memspace.PAddr) int {
	return len(s.chans[s.m.Map(pa).Channel].queue)
}

// Channels returns the number of memory channels.
func (s *System) Channels() int { return len(s.chans) }

// ChannelQueueLen returns the instantaneous request-buffer occupancy
// of channel i — the per-channel gauge the simprof timeline samples.
func (s *System) ChannelQueueLen(i int) int { return len(s.chans[i].queue) }

// Submit enqueues a request; it reports false (and does nothing) when
// the target channel's request buffer is full, modeling the
// back-pressure that limits a conventional core's visibility window.
func (s *System) Submit(r *Request) bool {
	r.coord = s.m.Map(r.Addr)
	ch := s.chans[r.coord.Channel]
	if ch.full() {
		return false
	}
	r.slice = r.coord.Slice(&s.p)
	r.bg = r.coord.Rank*s.p.BankGroups + r.coord.BankGroup
	ch.enqueue(r)
	return true
}

// Tick advances every channel by one DRAM cycle on CPU cycles that are
// multiples of ClkDiv.
func (s *System) Tick(now sim.Cycle) bool {
	if uint64(now)%uint64(s.p.ClkDiv) != 0 {
		return s.busy()
	}
	s.cCycles.Inc()
	dc := uint64(now) / uint64(s.p.ClkDiv)
	for _, ch := range s.chans {
		// Occupancy is sampled before the channel's tick.
		s.cOccupancy.Add(float64(len(ch.queue)))
		s.hOccupancy.Observe(float64(len(ch.queue)))
		if ch.hintValid && ch.hintMin > dc {
			// The cached earliestAction bound, which fast-forward already
			// trusts, says the scan would issue nothing this edge.
			continue
		}
		s.tickChannel(ch, dc, now)
	}
	return s.busy()
}

// NextWake implements sim.WakeHinter: the earliest CPU cycle at which
// any channel could issue a command or refresh. Between now and that
// cycle every DRAM tick is provably inert (SkipCycles accounts its
// statistics), because command legality over frozen state is monotone
// in time and the per-channel thresholds are exact. The refresh
// deadline always bounds the result, so a jump can never overshoot a
// scheduled refresh.
func (s *System) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	minDC := uint64(1<<64 - 1)
	for _, ch := range s.chans {
		if at := ch.earliestAction(); at < minDC {
			minDC = at
		}
	}
	if minDC == 1<<64-1 {
		return sim.NeverWake, true
	}
	// The DRAM system acts only on clock edges (CPU cycles that are
	// multiples of ClkDiv); the first edge at or after threshold minDC
	// that lies strictly in the future is the wake.
	div := uint64(s.p.ClkDiv)
	nextEdgeDC := uint64(now)/div + 1
	if minDC < nextEdgeDC {
		minDC = nextEdgeDC
	}
	return sim.Cycle(minDC * div), true
}

// SkipCycles implements sim.CycleSkipper: it bulk-accounts the
// per-DRAM-cycle statistics (cycle count and request-buffer occupancy
// integral) for the clock edges strictly inside the skipped range.
// Queue contents are frozen across a jump, so n edges contribute
// exactly n*len(queue) occupancy — bit-identical to n unit additions
// while the counters hold integers below 2^53.
func (s *System) SkipCycles(from, to sim.Cycle) {
	div := uint64(s.p.ClkDiv)
	edges := (uint64(to)-1)/div - uint64(from)/div
	if edges == 0 {
		return
	}
	s.cCycles.Add(float64(edges))
	for _, ch := range s.chans {
		// Add even when the queue is empty: a zero Add still marks the
		// counter as touched, exactly as the elided Ticks would have.
		s.cOccupancy.Add(float64(edges) * float64(len(ch.queue)))
		// ObserveN(v, n) is bit-identical to n unit Observes, so the
		// occupancy distribution is the same whether these edges were
		// stepped or jumped.
		s.hOccupancy.ObserveN(float64(len(ch.queue)), edges)
	}
}

func (s *System) busy() bool {
	for _, ch := range s.chans {
		if len(ch.queue) > 0 {
			return true
		}
	}
	return false
}

// Quiet reports whether every channel's request buffer is empty — the
// sampler's precondition for a functional phase (an in-flight
// request's completion callback cannot be fast-forwarded).
func (s *System) Quiet() bool { return !s.busy() }

// tickChannel issues at most one command on ch at DRAM cycle dc:
// a refresh, else FR-FCFS over the request buffer. Each command bumps
// its counter, emits its trace event, and a column command schedules
// the request's completion on the engine.
func (s *System) tickChannel(ch *channel, dc uint64, now sim.Cycle) {
	if ch.maybeRefresh(dc) {
		s.cRefreshes.Inc()
		if s.trace != nil {
			s.trace.Emit(obs.Event{
				Cycle: uint64(now), Kind: obs.EvDRAMRefresh, Src: s.prefix,
				Args: [6]int64{int64(ch.idx), int64(dc)},
			})
		}
		return
	}
	// First-ready: oldest request whose column command can issue now.
	for _, r := range ch.queue {
		if ch.casReady(r, dc) {
			s.completeCAS(ch, r, dc, now)
			return
		}
	}
	// FCFS: oldest request that needs its row opened, provided we
	// would not close a row that still has pending hits.
	for _, r := range ch.queue {
		b := ch.bankOf(r)
		if b.openRow == r.coord.Row {
			continue // only waiting on CAS timing
		}
		if b.openRow != -1 {
			if ch.hasPendingHit(r) {
				continue
			}
			if dc >= b.nextPre {
				ch.issuePRE(r, dc)
				r.requiredPre = true
				s.cPre.Inc()
				if s.trace != nil {
					s.trace.Emit(cmdEvent(obs.EvDRAMPre, s.prefix, now, r.coord, dc))
				}
				return
			}
			continue
		}
		if ch.actReady(r, dc) {
			ch.issueACT(r, dc)
			r.requiredAct = true
			s.cAct.Inc()
			if s.trace != nil {
				s.trace.Emit(cmdEvent(obs.EvDRAMAct, s.prefix, now, r.coord, dc))
			}
			return
		}
	}
}

// completeCAS issues r's column command, records its row-buffer
// classification, and schedules the completion callback for the cycle
// its data burst ends.
func (s *System) completeCAS(ch *channel, r *Request, dc uint64, now sim.Cycle) {
	doneAt := ch.issueCAS(r, dc)
	ch.remove(r)
	if s.trace != nil {
		kind := obs.EvDRAMRead
		if r.Kind == Write {
			kind = obs.EvDRAMWrite
		}
		s.trace.Emit(cmdEvent(kind, s.prefix, now, r.coord, dc))
	}
	switch {
	case !r.requiredAct:
		s.cRowHits.Inc()
	case r.requiredPre:
		s.cRowConfl.Inc()
	default:
		s.cRowMiss.Inc()
	}
	if r.Kind == Read {
		s.cReads.Inc()
	} else {
		s.cWrites.Inc()
	}
	s.cBytes.Add(memspace.LineSize)
	if r.OnDone != nil {
		s.eng.Schedule(sim.Cycle(doneAt*uint64(s.p.ClkDiv)), r.OnDone)
	}
}

// cmdEvent packs one DRAM command's coordinates into a trace event.
func cmdEvent(kind obs.Kind, src string, now sim.Cycle, c Coord, dc uint64) obs.Event {
	return obs.Event{
		Cycle: uint64(now), Kind: kind, Src: src,
		Args: [6]int64{int64(c.Channel), int64(c.Rank), int64(c.BankGroup), int64(c.Bank), int64(c.Row), int64(dc)},
	}
}

// RowBufferHitRate returns hits / (hits + misses + conflicts) over the
// run so far.
func (s *System) RowBufferHitRate() float64 {
	h := s.stats.Get(s.prefix + "rowhits")
	m := s.stats.Get(s.prefix + "rowmisses")
	c := s.stats.Get(s.prefix + "rowconflicts")
	if h+m+c == 0 {
		return 0
	}
	return h / (h + m + c)
}

// PeakBytesPerCycle is the peak throughput of every channel's data
// bus together, in bytes per DRAM cycle.
func (s *System) PeakBytesPerCycle() float64 {
	return float64(s.p.Channels) * s.p.PeakBytesPerDRAMCycle()
}

// BandwidthUtilization returns transferred bytes as a fraction of the
// peak bytes the bus could have moved over the run so far.
func (s *System) BandwidthUtilization() float64 {
	cycles := s.stats.Get(s.prefix + "cycles")
	if cycles == 0 {
		return 0
	}
	peak := s.PeakBytesPerCycle() * cycles
	return s.stats.Get(s.prefix+"bytes") / peak
}

// Occupancy returns the mean request-buffer occupancy as a fraction of
// the buffer capacity.
func (s *System) Occupancy() float64 {
	cycles := s.stats.Get(s.prefix + "cycles")
	if cycles == 0 {
		return 0
	}
	denom := cycles * float64(s.p.Channels) * float64(s.p.RequestBuffer)
	return s.stats.Get(s.prefix+"occupancy_sum") / denom
}
