package dx100

import (
	"dx100/internal/cache"
	"dx100/internal/memspace"
)

// Sampled-simulation support. During a functional fast-forward phase
// the engine does not run, so instructions a core sends through the
// memory-mapped queue never dispatch on their own; FunctionalDrain
// executes them with the same verified functional machine the timed
// dispatch path uses, releasing tile ready bits so core-side barriers
// can proceed. Timing state — units, Row Tables, request buffers —
// is untouched: functional phases by construction start and end with
// the accelerator idle.

// FunctionalDrain executes every queued instruction functionally and
// retires it, with no cycles simulated. The execution units must be
// idle (they are whenever the engine is quiescent): a queued
// instruction's operand snapshot was taken at send time, so draining
// in queue order preserves the exact architectural outcome the timed
// model would produce. It returns the number of instructions drained.
func (a *Accel) FunctionalDrain() int {
	for _, u := range a.units {
		if u != nil {
			panic("dx100: FunctionalDrain with an execution unit busy")
		}
	}
	if len(a.indQ) > 0 {
		panic("dx100: FunctionalDrain with staged indirect instructions")
	}
	drained := 0
	for ; a.QueueLen() > 0; drained++ {
		fl := a.pop()
		a.execute(fl)
		a.release(fl.ins)
	}
	return drained
}

// Touch implements cache.Toucher for the router. The scratchpad port
// has no cache state to warm (it is a fixed-latency pipeline), so a
// scratchpad address touches nothing.
func (r *Router) Touch(addr memspace.PAddr, kind cache.Kind) {
	cache.TouchLevel(r.route(addr), addr, kind)
}
