package dx100

import (
	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// spdPort services core-side scratchpad accesses: fixed pipelined
// latency (the region is cacheable and stride-prefetched, §3.6) with a
// per-cycle port limit.
type spdPort struct {
	a *Accel
}

// SPDPort returns a cache.Level servicing core accesses to the
// scratchpad's memory-mapped region.
func (a *Accel) SPDPort() cache.Level { return &spdPort{a: a} }

// Access implements cache.Level.
func (p *spdPort) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	a := p.a
	if now != a.spdCycle {
		a.spdCycle = now
		a.spdUsed = 0
	}
	if a.spdUsed >= a.cfg.SPDPorts {
		return false
	}
	a.spdUsed++
	a.cSPD.Inc()
	if onDone != nil {
		a.eng.After(a.cfg.SPDLatency, onDone)
	}
	return true
}

// Router is the core-side address router: accesses falling in the
// scratchpad's physical range go to the accelerator's SPD port,
// everything else to the cache hierarchy.
type Router struct {
	SPDLo, SPDHi memspace.PAddr
	SPD          cache.Level
	Default      cache.Level
}

// NewRouter builds a router for the accelerator in front of l1.
func NewRouter(a *Accel, l1 cache.Level) *Router {
	lo, hi := a.SPDRange()
	return &Router{SPDLo: lo, SPDHi: hi, SPD: a.SPDPort(), Default: l1}
}

// route returns the level addr goes to.
func (r *Router) route(addr memspace.PAddr) cache.Level {
	if addr >= r.SPDLo && addr < r.SPDHi {
		return r.SPD
	}
	return r.Default
}

// Access implements cache.Level.
func (r *Router) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	return r.route(addr).Access(now, addr, kind, onDone)
}
