package cpu

import (
	"fmt"

	"dx100/internal/cache"
	"dx100/internal/sim"
)

// Sampled-simulation support: the core can be paused (fetch stops, the
// in-flight window drains under detailed timing), then driven
// *functionally* — ops consumed in program order with their
// architectural side effects and no cycles simulated — and finally
// resumed. The handoff contract:
//
//  1. Pause() — the sampler stops fetch and keeps the engine running
//     until the machine is quiescent (no events, caches quiet,
//     inflight == 0). At that point the window holds only fully
//     executed entries (stDone) plus, possibly, a spinning Barrier at
//     the head with dependence-blocked entries behind it — nothing
//     in flight, because in-flight work implies pending events.
//  2. RunFunctional(budget, now, drain) — consumes the remaining window
//     in program order, then ops straight from the stream. An unready
//     barrier ends the step; the sampler round-robins other cores
//     (whose functional effects are what will satisfy it) and retries.
//  3. Resume() — fetch restarts; detailed execution continues exactly
//     where the functional phase left the architectural state.
//
// The functional path decides nothing on its own: a barrier holds by
// the predicate issueBarrier polls, a memory op counts through
// countIssue as issueMem counts it, and retirement is retireHead's and
// countRetired's. The same Done()/counters observe both modes, so a
// stream finished functionally terminates the run just like a timed
// one.

// Pause stops instruction fetch. In-flight work keeps draining under
// detailed timing; use Drained/window state to find the clean point.
func (c *Core) Pause() { c.paused = true }

// Resume restarts fetch after a functional phase.
func (c *Core) Resume() { c.paused = false }

// Drained reports whether the core's window is empty with nothing in
// flight — the fully clean handoff point. A paused core that is not
// Drained once the machine is quiescent is parked on a barrier;
// RunFunctional takes it the rest of the way.
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

// RunFunctional executes up to budget instruction weight with
// architectural side effects only, no cycles: first the window a pause
// left parked, then ops straight from the stream. A barrier that does
// not hold calls drain, which reports whether it made progress worth
// polling the barrier again (the accelerator work core-side barriers
// wait on); a barrier that still does not hold ends the step. It
// returns the weight executed.
//
// The caller must have brought the machine to quiescence first: an
// issued window entry is a contract violation and panics.
func (c *Core) RunFunctional(budget int, now sim.Cycle, drain func() bool) int {
	used := 0
	if !c.Drained() {
		w, blocked := c.drainWindow(now)
		used += w
		if blocked {
			if !drain() {
				return used
			}
			w, blocked = c.drainWindow(now)
			used += w
			if blocked {
				return used
			}
		}
	}
	var op MicroOp
	for used < budget && c.funcNext(&op) {
		if op.Kind == Barrier && !op.released() && !(drain() && op.released()) {
			c.funcUnget(op)
			break
		}
		used += c.countRetired(&op)
		c.execFunc(&op, now)
	}
	return used
}

// drainWindow consumes the paused core's window in program order:
// entries that executed only retire, and entries parked behind a
// barrier execute functionally first. It returns the weight consumed
// and whether it stopped on a barrier that does not hold.
func (c *Core) drainWindow(now sim.Cycle) (weight int, blocked bool) {
	for c.head < c.tail {
		e := c.at(c.head)
		switch e.state {
		case stIssued:
			panic(fmt.Sprintf("cpu: functional drain on %s with an issued entry (machine not quiescent)", c.prefix))
		case stDone:
		default:
			// In-order consumption resolves dependences oldest-first, so
			// an un-executed entry at the head is stReady (its deps
			// completed below), and a barrier there blocks exactly when
			// the timed core would spin on it.
			if c.spinningBarrier() {
				c.dropRetiredReady()
				return weight, true
			}
			c.execFunc(&e.op, now)
			c.complete(c.head)
		}
		weight += c.retireHead()
	}
	c.dropRetiredReady()
	return weight, false
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

// funcNext writes the next architectural op for functional execution
// into *op: the held pending op first, then the stream.
// false marks the stream exhausted (Done() then holds once the window
// is empty) and leaves *op untouched.
func (c *Core) funcNext(op *MicroOp) bool {
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

// funcUnget hands an unconsumed op back (an unready barrier pulled by
// funcNext); it re-emerges first from the next funcNext or fetch.
func (c *Core) funcUnget(op MicroOp) {
	if c.hasPending {
		panic("cpu: funcUnget with an op already pending")
	}
	c.pending = op
	c.hasPending = true
}

// execFunc performs op's architectural side effects with no timing and
// counts its issue: memory ops touch the core's cache front
// functionally (atomics are stores architecturally, as in issueMem),
// effects emit immediately. ALU ops and barriers have no side effects
// beyond retirement.
func (c *Core) execFunc(op *MicroOp, now sim.Cycle) {
	c.countIssue(op.Kind)
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
