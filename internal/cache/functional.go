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
func (c *Cache) Touch(addr memspace.PAddr, kind Kind) {
	la := memspace.LineAddr(addr)
	if ln := c.lookup(la); ln != nil {
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
	}
	if kind == Prefetch {
		c.cPrefetches.Inc()
	} else {
		c.cAccesses.Inc()
		c.cMisses.Inc()
	}
	// The timed miss path forwards below as a Load (stores
	// write-allocate: the dirty bit lands in this level's line), then
	// fills over the LRU victim.
	TouchLevel(c.below, la, Load)
	c.installTouch(la, kind == Store)
	if kind != Prefetch {
		c.touchTrain(la)
	}
}

// installTouch fills la over the LRU victim, functionally writing a
// dirty victim back to the level below.
func (c *Cache) installTouch(la memspace.PAddr, dirty bool) {
	set, tag := c.indexTag(la)
	var v *line
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if !ln.valid {
			v = ln
			break
		}
		if v == nil || ln.used < v.used {
			v = ln
		}
	}
	if v.valid && v.dirty {
		c.cWritebacks.Inc()
		wbAddr := memspace.PAddr((v.tag*uint64(c.cfg.Sets) + uint64(set)) << memspace.LineBits)
		TouchLevel(c.below, wbAddr, Store)
	}
	c.stamp++
	*v = line{valid: true, dirty: dirty, tag: tag, used: c.stamp}
}

// touchTrain is trainPrefetcher without the event delay: a matched
// stride issues the prefetch touches immediately (they cannot train
// further — prefetches never train, same as the timed path).
func (c *Cache) touchTrain(missAddr memspace.PAddr) {
	if c.cfg.PrefetchDegree == 0 {
		return
	}
	stride := int64(missAddr) - int64(c.lastMiss)
	if c.lastMiss != 0 && stride == c.lastStride && stride != 0 && abs64(stride) <= 4*memspace.LineSize {
		for d := 1; d <= c.cfg.PrefetchDegree; d++ {
			c.Touch(memspace.PAddr(int64(missAddr)+stride*int64(d)), Prefetch)
		}
	}
	c.lastStride = stride
	c.lastMiss = missAddr
}

// Quiet reports whether the cache holds no in-flight state: no
// outstanding MSHRs and no blocked downstream retries. Functional
// phases require every level quiet.
func (c *Cache) Quiet() bool {
	return len(c.mshrs) == 0 && c.blockedHead == len(c.blocked)
}

// Quiet reports whether the adapter's overflow buffer is empty.
func (a *MemAdapter) Quiet() bool { return a.pendingHead == len(a.pending) }

// Quiet reports whether every level of the hierarchy is quiet.
func (h *Hierarchy) Quiet() bool {
	if !h.LLC.Quiet() || !h.Mem.Quiet() {
		return false
	}
	for i := range h.L1 {
		if !h.L1[i].Quiet() || !h.L2[i].Quiet() {
			return false
		}
	}
	return true
}
