package cpu

import (
	"math/bits"

	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/obs/prof"
	"dx100/internal/sim"
)

// Config carries the structural parameters of Table 3's cores.
type Config struct {
	Width     int       // fetch/retire/execute width
	ROB       int       // reorder-buffer capacity (in instruction weight)
	LQ        int       // load-queue entries
	SQ        int       // store-queue entries
	MemPorts  int       // memory operations issued to L1 per cycle
	AtomicLat sim.Cycle // extra serialization latency of a locked RMW
}

// SkylakeLike returns the Table 3 core: 8-wide, ROB 224, LQ 72, SQ 56.
func SkylakeLike() Config {
	return Config{Width: 8, ROB: 224, LQ: 72, SQ: 56, MemPorts: 3, AtomicLat: 20}
}

type state uint8

const (
	stWaiting state = iota // dependences outstanding
	stReady                // ready to issue
	stIssued               // executing / in the memory system
	stDone                 // completed, awaiting retirement
)

type entry struct {
	op      MicroOp
	state   state
	waitCnt int
	wakers  []uint64
	seq     uint64
	// executed, loaded, atomicAcked and atomicDone are the slot's
	// completions, bound once in NewCore. An op keeps its slot until it
	// retires, and it cannot retire before its completion fires, so a
	// completion reads the seq of the op it completes.
	executed, loaded, atomicAcked, atomicDone func(now sim.Cycle)
}

// seqQueue is a FIFO of sequence numbers backed by a reusable slice:
// pops advance a head index instead of reslicing, and the backing
// array is recycled once drained, so steady-state operation does not
// allocate.
type seqQueue struct {
	buf  []uint64
	head int
}

func (q *seqQueue) len() int      { return len(q.buf) - q.head }
func (q *seqQueue) peek() uint64  { return q.buf[q.head] }
func (q *seqQueue) push(v uint64) { q.buf = append(q.buf, v) }

func (q *seqQueue) pop() uint64 {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// pushOrdered inserts v keeping the queued region sorted ascending.
func (q *seqQueue) pushOrdered(v uint64) {
	q.buf = append(q.buf, v)
	for i := len(q.buf) - 1; i > q.head && q.buf[i] < q.buf[i-1]; i-- {
		q.buf[i], q.buf[i-1] = q.buf[i-1], q.buf[i]
	}
}

// Core executes one µop stream. It is a sim.Ticker.
type Core struct {
	cfg       Config
	eng       *sim.Engine
	stats     *sim.Stats
	prefix    string
	translate func(memspace.VAddr) memspace.PAddr
	l1        cache.Level

	stream     Stream
	streamDone bool
	pending    MicroOp // fetched op awaiting ROB space (valid when hasPending)
	hasPending bool

	// ring holds the window; its length is the power of two at or
	// above cfg.ROB, so at masks instead of dividing. Capacity checks
	// use cfg.ROB.
	ring          []entry
	mask          uint64
	head          uint64 // oldest unretired seq
	tail          uint64 // next seq to allocate
	robUsed       int
	readyALU      seqQueue
	readyMem      seqQueue
	lqUsed        int
	sqUsed        int
	atomicPending bool
	inflight      int // memory ops issued, completion pending
	// stored is the L1 ack of every store. Stores complete at issue,
	// so their slot can be reused before the ack arrives: stored reads
	// no slot.
	stored func(now sim.Cycle)

	finished bool

	// paused stops fetch (see Pause): the in-flight window keeps
	// draining but no new ops enter, which is how the sampler brings
	// the core to an architecturally clean point between detailed
	// measurement windows.
	paused bool

	// Cycle attribution (simprof). account is nil unless a profiler is
	// attached; the bookkeeping below is maintained unconditionally
	// because it is a handful of integer/bool writes that never feed
	// back into scheduling decisions (the exp result-neutrality test
	// pins that profiled and plain runs are byte-identical).
	account *prof.CoreAccount
	acted   bool // retired/fetched/issued something this tick
	// depWaiting counts window entries whose dependences are still
	// outstanding — the signal that separates dependence-serialized
	// stalls (DepIndirect) from plain memory-latency stalls.
	depWaiting int

	cCycles *sim.Counter
	cSpin   *sim.Counter
	cInstr  *sim.Counter
	cLoads  *sim.Counter
	cStores *sim.Counter
	cAtomic *sim.Counter
	cDone   *sim.Counter // done_cycle gauge
}

// NewCore builds a core over the given L1 and translation function,
// registering it on the engine. Statistics go under prefix.
func NewCore(eng *sim.Engine, cfg Config, l1 cache.Level, translate func(memspace.VAddr) memspace.PAddr, stats *sim.Stats, prefix string) *Core {
	c := &Core{
		cfg:       cfg,
		eng:       eng,
		stats:     stats,
		prefix:    prefix,
		translate: translate,
		l1:        l1,
	}
	n := 1 << bits.Len(uint(cfg.ROB-1))
	c.ring, c.mask = make([]entry, n), uint64(n-1)
	for i := range c.ring {
		e := &c.ring[i]
		e.executed = func(sim.Cycle) { c.complete(e.seq) }
		e.loaded = func(sim.Cycle) {
			c.lqUsed--
			c.inflight--
			c.complete(e.seq)
		}
		e.atomicAcked = func(sim.Cycle) { c.eng.After(c.cfg.AtomicLat, e.atomicDone) }
		e.atomicDone = func(sim.Cycle) {
			c.atomicPending = false
			c.inflight--
			c.complete(e.seq)
		}
	}
	c.stored = func(sim.Cycle) {
		c.sqUsed--
		c.inflight--
	}
	c.cCycles = stats.Counter(prefix + "cycles")
	c.cSpin = stats.Counter(prefix + "spin_cycles")
	c.cInstr = stats.Counter(prefix + "instructions")
	c.cLoads = stats.Counter(prefix + "loads")
	c.cStores = stats.Counter(prefix + "stores")
	c.cAtomic = stats.Counter(prefix + "atomics")
	c.cDone = stats.Counter(prefix + "done_cycle")
	eng.Register(c)
	return c
}

// Run assigns the µop stream the core executes. It must be called
// before the engine runs.
func (c *Core) Run(s Stream) {
	c.stream = s
	c.streamDone = false
	c.finished = false
}

// AttachProfile points the core's cycle attribution at a. Every
// counted cycle from then on lands in exactly one bucket of a, so the
// bucket sum equals the cycles counter (the conservation invariant).
// A nil account (the default) keeps the tick path at one branch.
func (c *Core) AttachProfile(a *prof.CoreAccount) { c.account = a }

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool {
	return (c.stream == nil || c.streamDone) && !c.hasPending && c.head == c.tail && c.inflight == 0
}

func (c *Core) at(seq uint64) *entry { return &c.ring[seq&c.mask] }

// finish reports whether the core has retired its whole stream,
// recording the cycle it did so the first time.
func (c *Core) finish(now sim.Cycle) bool {
	if !c.Done() {
		return false
	}
	if !c.finished {
		c.finished = true
		c.cDone.Set(float64(now))
	}
	return true
}

// Tick implements sim.Ticker: retire, fetch, then issue.
func (c *Core) Tick(now sim.Cycle) bool {
	if c.finish(now) {
		return false
	}
	c.cCycles.Inc()
	c.acted = false
	c.retire()
	c.fetch()
	c.issueBarrier()
	c.issueALU(now)
	c.issueMem(now)
	if c.account != nil {
		// Attribute before the done check below: a cycle that retires
		// the last µop was counted and must land in a bucket (Busy,
		// since retiring sets acted).
		if c.acted {
			c.account.Add(prof.Busy, 1)
		} else {
			c.account.Add(c.stallBucket(), 1)
		}
	}
	return !c.finish(now)
}

// headBarrier returns the window head when it is a Barrier waiting to
// complete, and nil otherwise.
func (c *Core) headBarrier() *entry {
	if c.head >= c.tail {
		return nil
	}
	if e := c.at(c.head); e.op.Kind == Barrier && e.state == stReady {
		return e
	}
	return nil
}

// spinningBarrier reports whether the window head is a Barrier that
// would poll (and fail) its Ready predicate this cycle. Ready must be
// a pure predicate over simulator state (see MicroOp.Ready), so
// evaluating it here has no effect on the model.
func (c *Core) spinningBarrier() bool {
	e := c.headBarrier()
	return e != nil && !e.op.released()
}

// memHead returns the oldest ready memory op, the only one that may
// attempt the L1 next, or nil when none is ready or a pending atomic
// fences the queue.
func (c *Core) memHead() *entry {
	if c.readyMem.len() == 0 || c.atomicPending {
		return nil
	}
	return c.at(c.readyMem.peek())
}

// queueFull reports whether an op of kind k finds its load or store
// queue full.
func (c *Core) queueFull(k Kind) bool {
	return k == Load && c.lqUsed >= c.cfg.LQ || k == Store && c.sqUsed >= c.cfg.SQ
}

// memSlot reports whether the ready memory op e has what it needs to
// attempt the L1: room in its queue and, for an Atomic, the window
// head.
func (c *Core) memSlot(e *entry) bool {
	k := e.op.Kind
	return !c.queueFull(k) && (k != Atomic || e.seq == c.head)
}

// slotFree reports whether the ring has a slot for one more op.
func (c *Core) slotFree() bool { return c.tail-c.head < uint64(c.cfg.ROB) }

// heldFits reports whether the op fetch holds, if any, fits in the
// ROB's remaining instruction weight.
func (c *Core) heldFits() bool {
	return !c.hasPending || c.robUsed+c.pending.weight() <= c.cfg.ROB
}

// stallBucket classifies a counted cycle in which the core made no
// progress. The checks are ordered by root cause rather than proximate
// mechanism, and the first match wins, which is what makes the buckets
// exclusive and the attribution exact: spinning synchronization, then
// memory-queue capacity (LQ/SQ), then the memory-bound states —
// dependence serialization behind outstanding accesses (the indirect
// chase) or plain outstanding memory — and only then window capacity
// (ROB). The ordering matters: on an indirect-heavy baseline the ROB
// is full *because* it is stuffed with in-flight loads, so attributing
// that cycle to rob_full would hide the memory story behind a
// structural symptom (Top-Down-style attribution charges it to
// memory; ROBFull is reserved for the pure capacity limit with no
// memory outstanding). Every predicate reads frozen scheduling state
// the tick already consulted — classification cannot perturb the
// model.
func (c *Core) stallBucket() prof.Bucket {
	if c.spinningBarrier() {
		return prof.Spin
	}
	if e := c.memHead(); e != nil && c.queueFull(e.op.Kind) {
		return prof.LQSQFull
	}
	if c.inflight > 0 {
		// Memory outstanding. If nothing is ready to issue and entries
		// are dependence-blocked, the window is serialized behind the
		// in-flight accesses — the indirect-load chain the paper's §2
		// identifies. Otherwise the core has exposed all the MLP it can
		// (even if the ROB filled doing so) and is waiting on DRAM.
		if c.readyMem.len() == 0 && c.readyALU.len() == 0 && c.depWaiting > 0 {
			return prof.DepIndirect
		}
		return prof.DRAMBound
	}
	if !c.heldFits() {
		return prof.ROBFull
	}
	return prof.Other
}

// NextWake implements sim.WakeHinter. The core can advance on its own
// whenever it could retire, fetch, or issue something next cycle; in
// every other state it is waiting on completions (event callbacks) or
// on external state referenced by a spinning barrier, both of which
// are covered by the event heap and the other components' hints.
func (c *Core) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	if c.Done() {
		if !c.finished {
			return now + 1, true // next tick records done_cycle
		}
		return sim.NeverWake, true
	}
	// Retirement frees the head next cycle.
	if c.head < c.tail && c.at(c.head).state == stDone {
		return now + 1, true
	}
	// Fetch can pull (or discover the end of) the stream.
	if c.stream != nil && !c.streamDone && !c.paused && c.slotFree() && c.heldFits() {
		return now + 1, true
	}
	if c.readyALU.len() > 0 {
		return now + 1, true
	}
	// A barrier whose predicate already holds completes next tick. A
	// spinning barrier only burns spin_cycles (SkipCycles accounts
	// them) until some other component changes the predicate's inputs.
	if e := c.headBarrier(); e != nil && e.op.released() {
		return now + 1, true
	}
	// The memory queue issues in order: only the oldest ready op can
	// attempt the L1, and only when its queue slot and fencing allow.
	if e := c.memHead(); e != nil && c.memSlot(e) {
		return now + 1, true
	}
	return sim.NeverWake, true
}

// SkipCycles implements sim.CycleSkipper: elided ticks of an
// un-finished core would each have counted a cycle (and a spin cycle
// while a barrier polls an unsatisfied predicate).
func (c *Core) SkipCycles(from, to sim.Cycle) {
	if c.Done() {
		return
	}
	n := float64(to - from - 1)
	c.cCycles.Add(n)
	if c.spinningBarrier() {
		c.cSpin.Add(n)
	}
	if c.account != nil {
		// Core state is frozen across a jump (the engine only jumps
		// over provably inert cycles), so each elided tick would have
		// made no progress and classified identically: one bulk add is
		// bit-identical to n stepped attributions.
		c.account.Add(c.stallBucket(), uint64(to-from-1))
	}
}

// retire removes completed ops in order, up to Width instruction
// weight per cycle.
func (c *Core) retire() {
	budget := c.cfg.Width
	for c.head < c.tail && budget > 0 {
		e := c.at(c.head)
		if e.state != stDone {
			return
		}
		if w := e.op.weight(); w > budget && budget < c.cfg.Width {
			return // does not fit in what is left of this cycle
		}
		budget -= c.retireHead()
		c.acted = true
	}
}

// retireHead retires the window head and returns its weight.
func (c *Core) retireHead() int {
	e := c.at(c.head)
	w := c.countRetired(&e.op)
	c.robUsed -= w
	e.wakers = e.wakers[:0]
	c.head++
	return w
}

// countRetired counts op's instruction weight as retired and returns
// it.
func (c *Core) countRetired(op *MicroOp) int {
	w := op.weight()
	c.cInstr.Add(float64(w))
	return w
}

// fetch pulls new µops into the window, resolving their dependences.
func (c *Core) fetch() {
	if c.streamDone || c.stream == nil || c.paused {
		return
	}
	budget := c.cfg.Width
	for budget > 0 {
		// Peek capacity: an op needs ROB weight space and a ring slot.
		if !c.slotFree() {
			return
		}
		if !c.hasPending {
			if !c.stream.Next(&c.pending) {
				c.streamDone = true
				return
			}
			c.hasPending = true
		}
		if !c.heldFits() {
			// No space: hold the op until retirement frees room.
			return
		}
		w := c.pending.weight()
		c.hasPending = false
		budget -= w
		c.acted = true
		seq := c.tail
		c.tail++
		c.robUsed += w
		e := c.at(seq)
		e.op, e.state, e.waitCnt, e.wakers, e.seq = c.pending, stWaiting, 0, e.wakers[:0], seq
		for _, d := range [2]uint32{e.op.Dep1, e.op.Dep2} {
			if d == 0 || uint64(d) > seq {
				continue
			}
			dep := seq - uint64(d)
			if dep < c.head {
				continue // already retired => complete
			}
			de := c.at(dep)
			if de.state == stDone {
				continue
			}
			de.wakers = append(de.wakers, seq)
			e.waitCnt++
		}
		if e.waitCnt == 0 {
			c.makeReady(seq)
		} else {
			c.depWaiting++
		}
	}
}

func (c *Core) makeReady(seq uint64) {
	e := c.at(seq)
	e.state = stReady
	switch e.op.Kind {
	case Load, Store, Atomic:
		// Keep the memory queue ordered by age so that an Atomic at
		// the front fences only *younger* operations; an older op
		// becoming ready later must slot in before it.
		c.readyMem.pushOrdered(seq)
	case Barrier:
		// Handled at the window head by issueBarrier.
	default:
		c.readyALU.push(seq)
	}
}

// complete marks seq done and wakes its dependents.
func (c *Core) complete(seq uint64) {
	e := c.at(seq)
	e.state = stDone
	for _, w := range e.wakers {
		we := c.at(w)
		we.waitCnt--
		if we.waitCnt == 0 && we.state == stWaiting {
			c.depWaiting--
			c.makeReady(w)
		}
	}
	e.wakers = e.wakers[:0]
}

// issueBarrier completes a Barrier at the head of the window once its
// predicate holds — the core spins until then.
func (c *Core) issueBarrier() {
	e := c.headBarrier()
	if e == nil {
		return
	}
	if e.op.released() {
		c.complete(c.head)
		c.acted = true
	} else {
		c.cSpin.Inc()
	}
}

// issueALU executes up to Width ready ALU/Effect ops.
func (c *Core) issueALU(now sim.Cycle) {
	budget := c.cfg.Width
	for budget > 0 && c.readyALU.len() > 0 {
		seq := c.readyALU.pop()
		e := c.at(seq)
		budget--
		c.acted = true
		e.state = stIssued
		if e.op.Kind == Effect && e.op.Emit != nil {
			e.op.Emit(now)
		}
		lat := sim.Cycle(e.op.Lat)
		if lat == 0 {
			lat = 1
		}
		c.eng.After(lat, e.executed)
	}
}

// issueMem issues ready memory ops in order, up to MemPorts per cycle,
// respecting LQ/SQ capacity and atomic fencing.
func (c *Core) issueMem(now sim.Cycle) {
	budget := c.cfg.MemPorts
	for budget > 0 {
		e := c.memHead()
		if e == nil || !c.memSlot(e) {
			return
		}
		switch e.op.Kind {
		case Load:
			if !c.l1.Access(now, c.translate(e.op.Addr), cache.Load, e.loaded) {
				return // retry next cycle
			}
			c.lqUsed++
			c.inflight++
		case Store:
			if !c.l1.Access(now, c.translate(e.op.Addr), cache.Store, c.stored) {
				return
			}
			c.sqUsed++
			c.inflight++
			// Stores complete architecturally at issue (store buffer).
			c.complete(e.seq)
		case Atomic:
			// A locked RMW issues only at the head of the window and
			// fences younger memory operations until it completes.
			if !c.l1.Access(now, c.translate(e.op.Addr), cache.Store, e.atomicAcked) {
				return
			}
			c.atomicPending = true
			c.inflight++
		}
		c.countIssue(e.op.Kind)
		if e.state != stDone {
			e.state = stIssued
		}
		c.readyMem.pop()
		budget--
		c.acted = true
	}
}

// countIssue bumps the per-kind counter of a memory op that issued.
func (c *Core) countIssue(k Kind) {
	switch k {
	case Load:
		c.cLoads.Inc()
	case Store:
		c.cStores.Inc()
	case Atomic:
		c.cAtomic.Inc()
	}
}
