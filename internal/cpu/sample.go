package cpu

import (
	"fmt"

	"dx100/internal/cache"
	"dx100/internal/sim"
)

// Sampled-simulation support: the core can be paused (fetch stops, the
// in-flight window drains under detailed timing), then driven
// *functionally* — ops consumed in program order with architectural
// side effects applied by the caller and no cycles simulated — and
// finally resumed. The handoff contract:
//
//  1. Pause() — the sampler stops fetch and keeps the engine running
//     until the machine is quiescent (no events, caches quiet,
//     inflight == 0). At that point the window holds only fully
//     executed entries (stDone) plus, possibly, a spinning Barrier at
//     the head with dependence-blocked entries behind it — nothing
//     in flight, because in-flight work implies pending events.
//  2. DrainWindow(apply) — consumes the remaining window in program
//     order: already-executed entries just retire; un-executed ones
//     (those parked behind a barrier) have their side effects applied
//     through the callback first. An unready barrier blocks the
//     drain; the sampler round-robins other cores (whose functional
//     effects are what will satisfy it) and retries.
//  3. FuncNext / FuncUnget / FuncRetireOp — once the window is empty,
//     the functional interpreter pulls ops straight from the stream.
//  4. Resume() — fetch restarts; detailed execution continues exactly
//     where the functional phase left the architectural state.
//
// The same Done()/counters observe both modes, so a stream finished
// functionally terminates the run just like a timed one.

// Pause stops instruction fetch. In-flight work keeps draining under
// detailed timing; use Drained/window state to find the clean point.
func (c *Core) Pause() { c.paused = true }

// Resume restarts fetch after a functional phase.
func (c *Core) Resume() { c.paused = false }

// Drained reports whether the core's window is empty with nothing in
// flight — the fully clean handoff point. A paused core that is not
// Drained once the machine is quiescent is parked on a barrier;
// DrainWindow takes it the rest of the way.
func (c *Core) Drained() bool { return c.head == c.tail && c.inflight == 0 }

// Quiesced reports whether the core has reached a functional handoff
// point under pause: either fully drained, or parked with nothing in
// flight (a spinning barrier at the head, every other entry executed
// or dependence-blocked behind it).
func (c *Core) Quiesced() bool {
	if c.inflight != 0 {
		return false
	}
	for s := c.head; s < c.tail; s++ {
		switch c.at(s).state {
		case stIssued:
			return false
		}
	}
	return true
}

// DrainWindow functionally consumes the paused core's remaining
// window in program order. For entries whose execution never happened
// (parked behind a barrier), apply is invoked to perform the
// architectural side effects — cache touches, effect emissions —
// before the entry retires; already-executed entries only retire.
// It returns the total instruction weight consumed and whether it
// stopped on an unready barrier (retry after other cores progress).
//
// The caller must have brought the machine to quiescence first: a
// still-issued entry here is a contract violation and panics.
func (c *Core) DrainWindow(apply func(op *MicroOp)) (weight int, blocked bool) {
	for c.head < c.tail {
		e := c.at(c.head)
		switch e.state {
		case stIssued:
			panic(fmt.Sprintf("cpu: DrainWindow on %s with an issued entry (machine not quiescent)", c.prefix))
		case stDone:
			weight += c.retireHeadFunc()
			continue
		}
		// In-order consumption resolves dependences oldest-first, so an
		// un-executed entry at the head is stReady (its deps completed
		// below). A barrier gates; everything else applies functionally.
		if e.op.Kind == Barrier {
			if e.op.Ready != nil && !e.op.Ready() {
				c.dropRetiredReady()
				return weight, true
			}
			c.complete(c.head)
			weight += c.retireHeadFunc()
			continue
		}
		c.countFuncOp(e.op.Kind)
		apply(&e.op)
		c.complete(c.head)
		weight += c.retireHeadFunc()
	}
	c.dropRetiredReady()
	return weight, false
}

// retireHeadFunc retires the head entry with no width budget,
// mirroring retire()'s bookkeeping.
func (c *Core) retireHeadFunc() int {
	e := c.at(c.head)
	w := e.op.weight()
	c.robUsed -= w
	c.cInstr.Add(float64(w))
	e.wakers = e.wakers[:0]
	c.head++
	return w
}

// dropRetiredReady removes stale sequence numbers (already
// functionally retired) from the ready queues, so a later detailed
// resume never pops a recycled ring slot.
func (c *Core) dropRetiredReady() {
	for _, q := range [2]*seqQueue{&c.readyALU, &c.readyMem} {
		kept := q.buf[:0]
		for i := q.head; i < len(q.buf); i++ {
			if q.buf[i] >= c.head {
				kept = append(kept, q.buf[i])
			}
		}
		q.buf = kept
		q.head = 0
	}
}

// FuncNext writes the next architectural op for functional execution
// into *op: the held pending op first, then the stream.
// false marks the stream exhausted (Done() then holds once the window
// is empty) and leaves *op untouched.
func (c *Core) FuncNext(op *MicroOp) bool {
	if c.hasPending {
		c.hasPending = false
		*op = c.pending
		return true
	}
	if !c.stream.Next(op) {
		c.streamDone = true
		return false
	}
	return true
}

// FuncUnget hands an unconsumed op back (an unready barrier pulled by
// FuncNext); it re-emerges first from the next FuncNext or fetch.
func (c *Core) FuncUnget(op MicroOp) {
	if c.hasPending {
		panic("cpu: FuncUnget with an op already pending")
	}
	c.pending = op
	c.hasPending = true
}

// FuncRetireOp counts a functionally executed op exactly as the timed
// retire/issue paths would — instruction weight plus the per-kind
// memory counters — and returns the weight consumed.
func (c *Core) FuncRetireOp(op *MicroOp) int {
	w := op.weight()
	c.cInstr.Add(float64(w))
	c.countFuncOp(op.Kind)
	return w
}

// FuncApply performs op's architectural side effects with no timing:
// memory ops touch the core's cache front functionally (atomics are
// stores architecturally, as in issueMem), effects emit immediately.
// ALU and ready barriers have no side effects beyond retirement.
func (c *Core) FuncApply(op *MicroOp, now sim.Cycle) {
	switch op.Kind {
	case Load:
		cache.TouchLevel(c.l1, c.translate(op.Addr), cache.Load)
	case Store, Atomic:
		cache.TouchLevel(c.l1, c.translate(op.Addr), cache.Store)
	case Effect:
		if op.Emit != nil {
			op.Emit(now)
		}
	}
}

// countFuncOp bumps the per-kind issue counters for a functionally
// executed op (the timed path bumps them in issueMem).
func (c *Core) countFuncOp(k Kind) {
	switch k {
	case Load:
		c.cLoads.Inc()
	case Store:
		c.cStores.Inc()
	case Atomic:
		c.cAtomic.Inc()
	}
}
