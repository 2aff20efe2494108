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
	// Levels > 1 chases multi-level indirection A[B[C[i]]]: the value
	// loaded from the target is itself an index into NextTarget.
	Next *Pattern
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
	eng      *sim.Engine
	stats    *sim.Stats
	prefix   string
	// lastElem avoids re-triggering on every word of the same index
	// element region; indexed parallel to patterns.
	lastElem []int
	cIssued  *sim.Counter
}

// New builds a DMP observing `forward` and prefetching into `into`.
func New(eng *sim.Engine, cfg Config, space *memspace.Space, forward, into cache.Level, stats *sim.Stats, prefix string) *DMP {
	return &DMP{
		cfg:     cfg,
		space:   space,
		forward: forward,
		into:    into,
		eng:     eng,
		stats:   stats,
		prefix:  prefix,
		cIssued: stats.Counter(prefix + "issued"),
	}
}

// Register adds an indirect pattern for the idealized detector.
func (d *DMP) Register(p Pattern) {
	d.patterns = append(d.patterns, p)
	d.lastElem = append(d.lastElem, -1)
}

// Access implements cache.Level: it forwards to the wrapped level and
// triggers indirect prefetches on index-stream accesses.
func (d *DMP) Access(now sim.Cycle, addr memspace.PAddr, kind cache.Kind, onDone func(sim.Cycle)) bool {
	if !d.forward.Access(now, addr, kind, onDone) {
		return false
	}
	if kind == cache.Load {
		d.trigger(now, addr)
	}
	return true
}

// trigger checks whether addr falls in a registered index stream and,
// if so, prefetches the indirect targets Distance ahead.
func (d *DMP) trigger(now sim.Cycle, addr memspace.PAddr) {
	for pi := range d.patterns {
		p := &d.patterns[pi]
		paBase := d.space.Translate(p.IndexBase)
		span := uint64(p.IndexCount * p.IndexSize)
		if uint64(addr) < uint64(paBase) || uint64(addr) >= uint64(paBase)+span {
			continue
		}
		elem := int(uint64(addr)-uint64(paBase)) / p.IndexSize
		if last := d.lastElem[pi]; last >= 0 && elem <= last && elem > last-2*d.cfg.Distance {
			return // already triggered around here
		}
		d.lastElem[pi] = elem
		for k := 0; k < d.cfg.Degree; k++ {
			i := elem + d.cfg.Distance + k
			if i >= p.IndexCount {
				break
			}
			d.chase(now, p, i)
		}
		return
	}
}

// chase computes the indirect target of index element i (reading the
// real index value, as DMP's value-based matching does) and issues a
// prefetch, recursing through multi-level patterns.
func (d *DMP) chase(now sim.Cycle, p *Pattern, i int) {
	idxVA := p.IndexBase + memspace.VAddr(i*p.IndexSize)
	idx := d.space.ReadWord(idxVA, p.IndexSize)
	tgtVA := p.TargetBase + memspace.VAddr(idx*uint64(p.TargetSize))
	pa := d.space.Translate(tgtVA)
	d.cIssued.Inc()
	d.into.Access(now, pa, cache.Prefetch, nil)
	if p.Next != nil {
		// Multi-level chase after the first level would be ready; the
		// timing charge is folded into the prefetch pipeline.
		next := p.Next
		d.eng.After(8, func(n sim.Cycle) { d.chase(n, next, int(idx)) })
	}
}
