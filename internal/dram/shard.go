package dram

import (
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// This file makes System a sim.ShardedTicker: the channel array is the
// shard unit set. Each channel is fully self-contained — banks, queue,
// timing trackers, hint cache — so worker goroutines may advance
// disjoint channels concurrently as long as every externally visible
// effect (statistics, completion events, trace events) is buffered in
// a per-channel mailbox (chanFx) and applied serially in channel
// order. That fixed-order merge reproduces, effect for effect, the
// order a serial Tick loop would have produced, which is what keeps
// sharded runs byte-identical to serial ones (the equivalence matrix
// in internal/exp pins this for every registered workload).
//
// Two parallel regimes exist:
//
//   - TickSharded fans a single DRAM clock edge out over the pool when
//     at least parallelTickMinQueued requests are queued, which is the
//     steady state of DX100-mode runs. It does not pay on the one host
//     measured (2 vCPUs, Intel Xeon @ 2.10GHz, GOMAXPROCS=2). On
//     BenchmarkShardedRun/IS-dx100, shards=2, where this fan-out and
//     the core array's run on two lanes, took 3.58 s against 3.26 s at
//     shards=1, where everything runs inline, while a channel tick was
//     O(queue²); now that per-bank hit counts make it O(queue), it
//     takes 2.14 s against 1.40 s.
//   - AdvanceShards replays each channel's own action edges through a
//     whole epoch (see sim/epoch.go) without returning to the engine
//     loop between them. This is the win in baseline-mode runs, where
//     the cores spend long stretches blocked on memory and the serial
//     engine would pay the full hint-scan/step overhead per command.

// pendingDone is one buffered completion callback: the request's
// OnDone, to be scheduled at cycle `at`, recorded while the channel
// was at cycle asOf (the serial engine's clamp reference).
type pendingDone struct {
	asOf, at sim.Cycle
	fn       func(sim.Cycle)
}

// occSeg is a run of DRAM clock edges that all observed the same
// request-buffer occupancy — the bulk form of the per-edge occupancy
// statistics, exact because ObserveN(v, n) ≡ n unit Observes and
// float adds of small integers are order-independent.
type occSeg struct {
	qlen  int
	edges uint64
}

// chanFx is one channel's effect mailbox. Workers write only their own
// channel's chanFx; the merge on the simulating goroutine drains them
// in channel order. The trailing pad keeps neighbouring mailboxes off
// one cache line so concurrent writers do not false-share.
type chanFx struct {
	// Command counter deltas accumulated since the last merge.
	refreshes, pre, act     uint64
	rowHits, rowMiss, confl uint64
	reads, writes, bytes    uint64

	comps  []pendingDone
	events []obs.Event

	// Per-edge tick scratch: queue length observed before the tick and
	// whether the channel acted.
	preLen int
	acted1 bool

	// Epoch-advance scratch: occupancy runs, the CPU cycles at which
	// this channel acted, and the last DRAM edge it accounted.
	occ    []occSeg
	acted  []sim.Cycle
	lastDC uint64

	_pad [64]byte
}

// pushOcc records `edges` consecutive DRAM edges observing qlen.
func (fx *chanFx) pushOcc(qlen int, edges uint64) {
	if edges == 0 {
		return
	}
	if n := len(fx.occ); n > 0 && fx.occ[n-1].qlen == qlen {
		fx.occ[n-1].edges += edges
		return
	}
	fx.occ = append(fx.occ, occSeg{qlen: qlen, edges: edges})
}

// applyCounters folds the buffered command deltas into the statistics
// registry. Guarding each add keeps counter-touch semantics identical
// to the serial per-command Incs: a counter is touched only when the
// corresponding command actually issued.
func (s *System) applyCounters(fx *chanFx) {
	if fx.refreshes != 0 {
		s.cRefreshes.Add(float64(fx.refreshes))
		fx.refreshes = 0
	}
	if fx.pre != 0 {
		s.cPre.Add(float64(fx.pre))
		fx.pre = 0
	}
	if fx.act != 0 {
		s.cAct.Add(float64(fx.act))
		fx.act = 0
	}
	if fx.rowHits != 0 {
		s.cRowHits.Add(float64(fx.rowHits))
		fx.rowHits = 0
	}
	if fx.rowMiss != 0 {
		s.cRowMiss.Add(float64(fx.rowMiss))
		fx.rowMiss = 0
	}
	if fx.confl != 0 {
		s.cRowConfl.Add(float64(fx.confl))
		fx.confl = 0
	}
	if fx.reads != 0 {
		s.cReads.Add(float64(fx.reads))
		fx.reads = 0
	}
	if fx.writes != 0 {
		s.cWrites.Add(float64(fx.writes))
		fx.writes = 0
	}
	if fx.bytes != 0 {
		s.cBytes.Add(float64(fx.bytes))
		fx.bytes = 0
	}
}

// applyEdge publishes one channel's effects from a single ticked edge:
// counters, trace events, completion events — in the order the serial
// tickChannel produced them inline.
func (s *System) applyEdge(fx *chanFx) {
	s.applyCounters(fx)
	if len(fx.events) > 0 {
		for i := range fx.events {
			s.trace.Emit(fx.events[i])
		}
		fx.events = fx.events[:0]
	}
	if len(fx.comps) > 0 {
		for _, c := range fx.comps {
			// Completions ride the engine's completion lane: under a
			// sharded run they land in the epoch mailbox heap instead of
			// the main event heap, so pending CAS completions no longer
			// cap the epoch window. Delivery order (cycle, seq) is
			// identical either way.
			s.eng.ScheduleCompletion(c.at, c.fn)
		}
		fx.comps = fx.comps[:0]
	}
}

// ShardUnits implements sim.ShardedTicker: one unit per channel.
func (s *System) ShardUnits() int { return len(s.chans) }

// parallelTickMinQueued is the total queued-request count below which
// TickSharded ticks the channels inline. BenchmarkDRAMTick, which keeps
// both channels' buffers topped up, measures about 350 ns per simulated
// CPU cycle on the host above, against 3,300 ns before the per-bank hit
// counts, so even a full-queue edge leaves little work to split; the
// IS-dx100 numbers above show the fan-out losing at this threshold.
const parallelTickMinQueued = 16

// TickSharded implements sim.ShardedTicker: Tick, with the per-channel
// work optionally fanned out over the worker pool. Effects are
// buffered per channel and applied in channel order, so the result is
// observably identical to Tick whatever the interleaving.
func (s *System) TickSharded(now sim.Cycle, p sim.Parallel) bool {
	if uint64(now)%uint64(s.p.ClkDiv) != 0 {
		return s.busy()
	}
	dc := uint64(now) / uint64(s.p.ClkDiv)
	s.cCycles.Inc()
	queued := 0
	for _, ch := range s.chans {
		queued += len(ch.queue)
	}
	// The mailbox path buffers per-channel effects so the merge can run
	// after a parallel fan-out; with a pool that runs inline anyway it
	// is pure bookkeeping overhead, so take the serial path.
	wide, _ := p.(interface{ Wide() bool })
	if wide == nil || !wide.Wide() ||
		queued < parallelTickMinQueued || len(s.chans) < 2 {
		s.tickInline(dc, now)
		return s.busy()
	}
	s.tickDC, s.tickNow = dc, now
	p.Run(len(s.chans), s.tickFn)
	for i := range s.chans {
		fx := &s.fx[i]
		s.cOccupancy.Add(float64(fx.preLen))
		s.hOccupancy.Observe(float64(fx.preLen))
		if fx.acted1 {
			s.applyEdge(fx)
		}
	}
	return s.busy()
}

// EffectLookahead implements sim.ShardedTicker: a lower bound on the
// earliest CPU cycle at which advancing the DRAM system could affect
// another component. Two effect kinds exist:
//
//   - Completion events. The first column command on any channel
//     cannot issue before that channel's earliest action, and its data
//     burst lands CL/CWL+TBURST DRAM cycles later still.
//   - Request-buffer slots freeing on a full channel. A producer
//     blocked on a full buffer legitimately hints NeverWake (the serial
//     engine re-ticks it whenever the DRAM system acts, see the Accel
//     NextWake contract), so the epoch must end before the first column
//     command on a full channel frees a slot — bounded below by that
//     channel's earliest action of any kind. Channels with free slots
//     can only drain during an epoch (nothing enqueues while the rest
//     of the machine is quiescent), so full() never turns true
//     mid-window and non-full channels impose no slot bound.
//
// Channels with empty queues cannot produce effects at all during an
// epoch; refreshes, PREs and ACTs change no externally visible state,
// so on non-full channels they do not bound the epoch.
func (s *System) EffectLookahead(now sim.Cycle) sim.Cycle {
	const inf = uint64(1<<64 - 1)
	minAct := inf
	minSlot := inf
	for _, ch := range s.chans {
		if len(ch.queue) == 0 {
			continue
		}
		a := ch.earliestAction()
		if a < minAct {
			minAct = a
		}
		if ch.full() && a < minSlot {
			minSlot = a
		}
	}
	if minAct == inf {
		return sim.NeverWake
	}
	cas := uint64(s.p.CL)
	if w := uint64(s.p.CWL); w < cas {
		cas = w
	}
	doneDC := minAct + cas + uint64(s.p.TBURST)
	if doneDC < minAct { // overflow
		doneDC = inf
	}
	if minSlot < doneDC {
		doneDC = minSlot
	}
	if doneDC == inf {
		return sim.NeverWake
	}
	la := doneDC * uint64(s.p.ClkDiv)
	if la/uint64(s.p.ClkDiv) != doneDC { // overflow
		return sim.NeverWake
	}
	return sim.Cycle(la)
}

// advanceChannel replays channel u's own action edges through
// (from, upTo], buffering effects and accounting the per-edge
// occupancy statistics exactly as the elided serial ticks would have.
// It runs on a worker lane and touches only channel-local state.
func (s *System) advanceChannel(u int, from, upTo sim.Cycle) {
	ch := s.chans[u]
	fx := &s.fx[u]
	div := uint64(s.p.ClkDiv)
	lastDC := uint64(from) / div
	endDC := uint64(upTo) / div
	for {
		a := ch.earliestAction()
		if a == 1<<64-1 {
			break
		}
		actDC := a
		if actDC <= lastDC {
			// The action was already legal at the last processed edge;
			// FR-FCFS issues at most one command per edge, so it lands
			// on the next one.
			actDC = lastDC + 1
		}
		if actDC > endDC {
			break
		}
		// Every edge in (lastDC, actDC] observes the queue as it stands
		// now: the serial engine samples occupancy before ticking, so
		// the acting edge itself still sees the pre-action length.
		fx.pushOcc(len(ch.queue), actDC-lastDC)
		edgeNow := sim.Cycle(actDC * div)
		if s.tickChannel(ch, fx, actDC, edgeNow) {
			fx.acted = append(fx.acted, edgeNow)
		}
		lastDC = actDC
	}
	fx.lastDC = lastDC
}

// AdvanceShards implements sim.ShardedTicker: advance every channel
// through its actions in (from, upTo] on the pool, then merge the
// mailboxes in deterministic (cycle, channel) order.
func (s *System) AdvanceShards(from, upTo sim.Cycle, p sim.Parallel, ep *sim.Epoch) bool {
	s.advFrom, s.advUpTo = from, upTo
	p.Run(len(s.chans), s.advFn)
	s.mergeEpoch(from, ep)
	return s.busy()
}

// mergeEpoch drains every channel's mailbox into the engine-visible
// world in the order a serial run would have produced: acted cycles
// merged ascending, trace events and completion events by
// (cycle, channel), counters and occupancy per channel in index order.
func (s *System) mergeEpoch(from sim.Cycle, ep *sim.Epoch) {
	n := len(s.chans)
	// Merge the acted-cycle lists (each already ascending) into the
	// epoch's visited set and find the globally last action.
	idx := s.mergeIdx
	for i := range idx {
		idx[i] = 0
	}
	anyActed := false
	var last sim.Cycle
	for {
		best := -1
		var bestAt sim.Cycle
		for i := 0; i < n; i++ {
			fx := &s.fx[i]
			if idx[i] < len(fx.acted) {
				if at := fx.acted[idx[i]]; best < 0 || at < bestAt {
					best, bestAt = i, at
				}
			}
		}
		if best < 0 {
			break
		}
		idx[best]++
		ep.AddActed(bestAt)
		anyActed = true
		if bestAt > last {
			last = bestAt
		}
	}
	if !anyActed {
		// No channel acted: nothing was accounted, nothing to merge.
		return
	}
	// Trace events in (cycle, channel) order — at most one event per
	// channel per edge, so a k-way merge on the stamped cycle suffices.
	if s.trace != nil {
		for i := range idx {
			idx[i] = 0
		}
		for {
			best := -1
			var bestCycle uint64
			for i := 0; i < n; i++ {
				fx := &s.fx[i]
				if idx[i] < len(fx.events) {
					if c := fx.events[idx[i]].Cycle; best < 0 || c < bestCycle {
						best, bestCycle = i, c
					}
				}
			}
			if best < 0 {
				break
			}
			ep.EmitTrace(s.trace, s.fx[best].events[idx[best]])
			idx[best]++
		}
		for i := 0; i < n; i++ {
			s.fx[i].events = s.fx[i].events[:0]
		}
	}
	// Completion events in (cycle, channel) order: the serial engine
	// scheduled each completion during its channel's tick, channels in
	// index order within an edge, so this reproduces the event seq
	// numbering exactly.
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bestAsOf sim.Cycle
		for i := 0; i < n; i++ {
			fx := &s.fx[i]
			if idx[i] < len(fx.comps) {
				if c := fx.comps[idx[i]].asOf; best < 0 || c < bestAsOf {
					best, bestAsOf = i, c
				}
			}
		}
		if best < 0 {
			break
		}
		c := s.fx[best].comps[idx[best]]
		ep.Schedule(c.asOf, c.at, c.fn)
		idx[best]++
	}
	// Statistics: the DRAM cycle counter covers every edge in
	// (from, last]; each channel contributes its buffered occupancy
	// runs plus the residual idle stretch between its own last action
	// and the epoch's landing cycle, during which its queue was frozen.
	div := uint64(s.p.ClkDiv)
	lastDC := uint64(last) / div
	s.cCycles.Add(float64(lastDC - uint64(from)/div))
	for i, ch := range s.chans {
		fx := &s.fx[i]
		fx.pushOcc(len(ch.queue), lastDC-fx.lastDC)
		for _, seg := range fx.occ {
			s.cOccupancy.Add(float64(seg.edges) * float64(seg.qlen))
			s.hOccupancy.ObserveN(float64(seg.qlen), seg.edges)
		}
		fx.occ = fx.occ[:0]
		fx.acted = fx.acted[:0]
		fx.comps = fx.comps[:0]
		s.applyCounters(fx)
	}
}
