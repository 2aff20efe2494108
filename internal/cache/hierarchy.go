package cache

import (
	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// MemAdapter is the bottom Level: it forwards line accesses into the
// DRAM system, buffering submissions that the channel request buffer
// rejects.
type MemAdapter struct {
	eng *sim.Engine
	sys *dram.System
	// pending drains head-first in Tick.
	pending fifo[*dram.Request]
	// MaxPending bounds the overflow buffer; Access refuses beyond it
	// so the MSHR back-pressure propagates upward.
	MaxPending int
}

// NewMemAdapter wraps sys, registering a retry ticker on eng.
func NewMemAdapter(eng *sim.Engine, sys *dram.System) *MemAdapter {
	a := &MemAdapter{eng: eng, sys: sys, MaxPending: 512}
	eng.Register(a)
	return a
}

// Access implements Level.
func (a *MemAdapter) Access(now sim.Cycle, addr memspace.PAddr, kind Kind, onDone func(now sim.Cycle)) bool {
	k := dram.Read
	if kind == Store {
		k = dram.Write
	}
	r := &dram.Request{Addr: memspace.LineAddr(addr), Kind: k, OnDone: onDone}
	if a.sys.Submit(r) {
		return true
	}
	if a.pending.len() >= a.MaxPending {
		return false
	}
	a.pending.push(r)
	return true
}

// Tick drains the overflow buffer into freed request-buffer slots.
func (a *MemAdapter) Tick(now sim.Cycle) bool {
	for a.pending.len() > 0 && a.sys.Submit(a.pending.peek()) {
		a.pending.pop()
	}
	return a.pending.len() > 0
}

// NextWake implements sim.WakeHinter: the adapter acts only while the
// overflow buffer holds requests waiting for channel slots. While the
// head request's channel is full, Tick retries in vain; the slot frees
// only when that channel issues a command, which the DRAM hint bounds.
func (a *MemAdapter) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	if a.pending.len() > 0 && a.sys.CanAccept(a.pending.peek().Addr) {
		return now + 1, true
	}
	return sim.NeverWake, true
}

// Hierarchy is the full cache system of one processor: per-core L1D
// and L2, a shared LLC, and the DRAM adapter. It is the one ticker of
// its caches: a cycle on which no cache holds a blocked retry ticks
// none of them.
type Hierarchy struct {
	L1  []*Cache // per core
	L2  []*Cache // per core
	LLC *Cache
	Mem *MemAdapter
	// caches lists every cache in tick order: the LLC, then each
	// core's L2 and L1.
	caches []*Cache
}

// HierarchyConfig sizes the three levels.
type HierarchyConfig struct {
	Cores int
	L1    Config
	L2    Config
	LLC   Config
}

// SkylakeLike returns the Table 3 configuration: 32 KB/8-way L1D
// (4 cycles), 256 KB/4-way L2 (12 cycles), and an LLC whose size
// depends on the system variant (10 MB baseline, 8 MB with DX100); all
// with stride prefetchers at the private levels.
func SkylakeLike(cores int, llcBytes int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1: Config{
			Name: "l1d", Sets: 64, Ways: 8, Latency: 4, MSHRs: 16, Ports: 4,
			PrefetchDegree: 4,
		},
		L2: Config{
			Name: "l2", Sets: 1024, Ways: 4, Latency: 12, MSHRs: 32, Ports: 2,
			PrefetchDegree: 8,
		},
		LLC: Config{
			Name: "llc", Sets: llcBytes / (memspace.LineSize * 16), Ways: 16,
			Latency: 42, MSHRs: 256, Ports: 4,
		},
	}
}

// NewHierarchy builds the cache system on the engine above the DRAM
// system. Per-core statistics are reported under
// "<prefix>l1d.core<i>." etc.
func NewHierarchy(eng *sim.Engine, cfg HierarchyConfig, sys *dram.System, stats *sim.Stats, prefix string) *Hierarchy {
	h := &Hierarchy{Mem: NewMemAdapter(eng, sys)}
	h.LLC = New(eng, cfg.LLC, h.Mem, stats, prefix+"llc.")
	h.caches = append(h.caches, h.LLC)
	for i := 0; i < cfg.Cores; i++ {
		l2 := New(eng, cfg.L2, h.LLC, stats, prefix+"l2.")
		l1 := New(eng, cfg.L1, l2, stats, prefix+"l1d.")
		h.L2 = append(h.L2, l2)
		h.L1 = append(h.L1, l1)
		h.caches = append(h.caches, l2, l1)
	}
	eng.Register(h)
	return h
}

// Tick implements sim.Ticker: it ticks every cache that holds a
// blocked retry, in tick order. A cache's Tick only retries, through
// the Access of the level below, which queues no retry anywhere, so
// skipping the caches with empty queues matches ticking every cache in
// turn. The hierarchy is busy while any miss is outstanding.
func (h *Hierarchy) Tick(now sim.Cycle) bool {
	busy := false
	for _, c := range h.caches {
		if c.blocked.len() > 0 {
			c.Tick(now)
		}
		if len(c.mshrs) > 0 || c.blocked.len() > 0 {
			busy = true
		}
	}
	return busy
}

// NextWake implements sim.WakeHinter. A cache acts on its own only to
// retry blocked downstream accesses; the level below can free ports
// or buffer space on any cycle, so a non-empty retry queue pins the
// clock.
func (h *Hierarchy) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	for _, c := range h.caches {
		if c.blocked.len() > 0 {
			return now + 1, true
		}
	}
	return sim.NeverWake, true
}

// AttachTrace directs fill/eviction events from every level into sink
// (nil detaches). Events carry the level's stats prefix as Src, so one
// sink distinguishes "llc." from "l1d." traffic.
func (h *Hierarchy) AttachTrace(sink *obs.Sink) {
	for _, c := range h.caches {
		c.AttachTrace(sink)
	}
}

// Present reports whether the line is resident anywhere in the
// hierarchy — the snoop DX100's interface performs during the fill
// stage (§3.6).
func (h *Hierarchy) Present(addr memspace.PAddr) bool {
	for _, c := range h.caches {
		if c.PresentHere(addr) {
			return true
		}
	}
	return false
}
