package cache

import (
	"dx100/internal/memspace"
)

// Functional access path: Touch applies the architectural side
// effects of an access — tag/LRU/dirty state, victim writebacks,
// recursive allocation below, stride-prefetcher training — with no
// events, ports, MSHRs or latency. It is what the sampled-simulation
// warm-up and fast-forward phases use: contents already live in the
// shared memspace (see the package comment), so presence metadata is
// the only cache state the functional mode has to maintain.
//
// Touch bumps the same access/hit/miss/prefetch/writeback counters as
// the timed path, so sampled statistics stay comparable to full-detail
// runs. It does not emit trace events: tracing is a timing-path
// observation.

// Toucher is the functional counterpart of Level. Levels that cannot
// meaningfully warm (the DRAM adapter, the DX100 scratchpad port)
// simply don't implement it; TouchLevel treats them as sinks.
type Toucher interface {
	Touch(addr memspace.PAddr, kind Kind)
}

// TouchLevel functionally touches l if it supports it.
func TouchLevel(l Level, addr memspace.PAddr, kind Kind) {
	if t, ok := l.(Toucher); ok {
		t.Touch(addr, kind)
	}
}

// Touch implements Toucher. The structure mirrors Access/fill: hit →
// LRU bump (dirty on store); miss → fetch below as a load, install
// over the LRU victim (writing a dirty victim back below), train the
// stride prefetcher. Prefetch touches install without counting as
// demand traffic, exactly like the timed prefetch path.
//
// One pass over the set finds both the tag and the victim the timed
// path's lru would pick: the first invalid way, or else the first way
// with the least used stamp. Nothing below can change this set before
// the install, since a touch below never reaches back up.
func (c *Cache) Touch(addr memspace.PAddr, kind Kind) {
	la := memspace.LineAddr(addr)
	set, tag := c.indexTag(la)
	ways := c.ways(set)
	var v *line
	for i := range ways {
		ln := &ways[i]
		switch {
		case !ln.valid:
			if v == nil || v.valid {
				v = ln
			}
		case ln.tag == tag:
			if kind == Prefetch {
				return
			}
			c.cAccesses.Inc()
			c.cHits.Inc()
			c.stamp++
			ln.used = c.stamp
			if kind == Store {
				ln.dirty = true
			}
			return
		case v == nil || v.valid && ln.used < v.used:
			v = ln
		}
	}
	if kind == Prefetch {
		c.cPrefetches.Inc()
	} else {
		c.cAccesses.Inc()
		c.cMisses.Inc()
	}
	// The timed miss path forwards below as a Load (stores
	// write-allocate: the dirty bit lands in this level's line), then
	// fills over the LRU victim, functionally writing a dirty victim
	// back below.
	TouchLevel(c.below, la, Load)
	if v.valid && v.dirty {
		c.cWritebacks.Inc()
		TouchLevel(c.below, c.lineOf(v, set), Store)
	}
	c.stamp++
	*v = line{valid: true, dirty: kind == Store, tag: tag, used: c.stamp}
	if kind != Prefetch {
		// A matched stride touches its prefetches at once, where the
		// timed path waits a cycle. Prefetches never train.
		if t, ok := c.strideMatch(la); ok {
			for d := 1; d <= c.cfg.PrefetchDegree; d++ {
				c.Touch(t.line(d), Prefetch)
			}
		}
	}
}

// Quiet reports whether every level of the hierarchy holds no
// in-flight state: no outstanding MSHRs, no blocked downstream
// retries, and an empty DRAM overflow buffer. Functional phases
// require it.
func (h *Hierarchy) Quiet() bool {
	for _, c := range h.caches {
		if len(c.mshrs) > 0 || c.blocked.len() > 0 {
			return false
		}
	}
	return h.Mem.pending.len() == 0
}
