// Package prefetch models DMP (Fu et al., HPCA 2024), the
// state-of-the-art indirect prefetcher the paper compares against
// (§6.3). DMP detects index streams and their dependent indirect
// accesses at run time via differential matching and prefetches
// A[B[i+Δ]] ahead of the core.
//
// This model gives DMP an idealized detector: workloads register their
// indirect patterns (index array → target array) explicitly, and the
// prefetcher reads the real index values from simulated memory to
// compute target addresses — upper-bounding DMP's coverage and
// accuracy. Its structural weaknesses remain exactly as the paper
// describes: it issues prefetches for untaken conditional iterations
// (cache pollution), leaves the dynamic instruction count unchanged,
// and does not reorder DRAM traffic, so bandwidth stays
// controller-limited.
package prefetch

import (
	"dx100/internal/cache"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// Pattern describes one indirect access pattern A[B[i]] for the
// detector.
type Pattern struct {
	IndexBase  memspace.VAddr // &B[0]
	IndexCount int            // len(B)
	IndexSize  int            // element size of B
	TargetBase memspace.VAddr // &A[0]
	TargetSize int            // element size of A
}

// Config tunes the prefetcher.
type Config struct {
	// Distance is how many index elements ahead of the trigger the
	// prefetcher runs.
	Distance int
	// Degree is how many consecutive indirect targets are prefetched
	// per trigger.
	Degree int
}

// DefaultConfig mirrors the DMP artifact's aggressive settings.
func DefaultConfig() Config { return Config{Distance: 16, Degree: 4} }

// DMP sits in front of a core's L1, observing the demand access
// stream (as the hardware detector would) and injecting prefetches
// into the L2.
type DMP struct {
	cfg      Config
	space    *memspace.Space
	forward  cache.Level // demand path (the core's L1)
	into     cache.Level // prefetch target (the core's L2)
	patterns []Pattern
	// lastElem avoids re-triggering on every word of the same index
	// element region; indexed parallel to patterns.
	lastElem []int
	cIssued  *sim.Counter
}

// New builds a DMP observing `forward` and prefetching into `into`.
func New(cfg Config, space *memspace.Space, forward, into cache.Level, stats *sim.Stats, prefix string) *DMP {
	return &DMP{
		cfg:     cfg,
		space:   space,
		forward: forward,
		into:    into,
		cIssued: stats.Counter(prefix + "issued"),
	}
}

// Register adds an indirect pattern for the idealized detector.
func (d *DMP) Register(p Pattern) {
	d.patterns = append(d.patterns, p)
	d.lastElem = append(d.lastElem, -1)
}

// Access implements cache.Level: it forwards to the wrapped level and
// prefetches the indirect targets an index-stream load triggers.
func (d *DMP) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	if !d.forward.Access(now, addr, kind, onDone) {
		return false
	}
	if kind == cache.Load {
		p, lo, hi := d.trigger(addr)
		for i := lo; i < hi; i++ {
			d.into.Access(now, d.target(p, i), cache.Prefetch, nil)
		}
	}
	return true
}

// Touch implements cache.Toucher, the functional counterpart of
// Access: the same trigger prefetches the same targets, each touched
// into the L2 at once.
func (d *DMP) Touch(addr memspace.PAddr, kind cache.Kind) {
	cache.TouchLevel(d.forward, addr, kind)
	if kind == cache.Load {
		p, lo, hi := d.trigger(addr)
		for i := lo; i < hi; i++ {
			cache.TouchLevel(d.into, d.target(p, i), cache.Prefetch)
		}
	}
}

// trigger checks whether addr falls in a registered index stream and,
// unless a trigger just behind it already covered it, returns the
// index elements [lo, hi) whose targets to prefetch: Degree of them,
// Distance ahead, clamped to the array. Outside every stream the range
// is empty.
func (d *DMP) trigger(addr memspace.PAddr) (p *Pattern, lo, hi int) {
	for pi := range d.patterns {
		p := &d.patterns[pi]
		paBase := d.space.Translate(p.IndexBase)
		span := uint64(p.IndexCount * p.IndexSize)
		if uint64(addr) < uint64(paBase) || uint64(addr) >= uint64(paBase)+span {
			continue
		}
		elem := int(uint64(addr)-uint64(paBase)) / p.IndexSize
		if last := d.lastElem[pi]; last >= 0 && elem <= last && elem > last-2*d.cfg.Distance {
			return nil, 0, 0 // already triggered around here
		}
		d.lastElem[pi] = elem
		lo = elem + d.cfg.Distance
		return p, lo, min(lo+d.cfg.Degree, p.IndexCount)
	}
	return nil, 0, 0
}

// target counts one prefetch and returns the physical address of
// index element i's indirect target, reading the real index value as
// DMP's value-based matching does.
func (d *DMP) target(p *Pattern, i int) memspace.PAddr {
	idx := d.space.ReadWord(p.IndexBase+memspace.VAddr(i*p.IndexSize), p.IndexSize)
	d.cIssued.Inc()
	return d.space.Translate(p.TargetBase + memspace.VAddr(idx*uint64(p.TargetSize)))
}
