package prefetch

import (
	"dx100/internal/cache"
	"dx100/internal/memspace"
)

// Touch implements cache.Toucher: the functional counterpart of
// Access. The demand touch warms the wrapped level, and index-stream
// loads trigger the same indirect chase — prefetch touches into the
// L2, multi-level patterns chased immediately instead of through a
// delayed event.
func (d *DMP) Touch(addr memspace.PAddr, kind cache.Kind) {
	cache.TouchLevel(d.forward, addr, kind)
	if kind != cache.Load {
		return
	}
	for pi := range d.patterns {
		p := &d.patterns[pi]
		paBase := d.space.Translate(p.IndexBase)
		span := uint64(p.IndexCount * p.IndexSize)
		if uint64(addr) < uint64(paBase) || uint64(addr) >= uint64(paBase)+span {
			continue
		}
		elem := int(uint64(addr)-uint64(paBase)) / p.IndexSize
		if last := d.lastElem[pi]; last >= 0 && elem <= last && elem > last-2*d.cfg.Distance {
			return
		}
		d.lastElem[pi] = elem
		for k := 0; k < d.cfg.Degree; k++ {
			i := elem + d.cfg.Distance + k
			if i >= p.IndexCount {
				break
			}
			d.chaseFunc(p, i)
		}
		return
	}
}

// chaseFunc is chase without events: the prefetch becomes a Touch and
// multi-level recursion happens inline.
func (d *DMP) chaseFunc(p *Pattern, i int) {
	idxVA := p.IndexBase + memspace.VAddr(i*p.IndexSize)
	idx := d.space.ReadWord(idxVA, p.IndexSize)
	tgtVA := p.TargetBase + memspace.VAddr(idx*uint64(p.TargetSize))
	pa := d.space.Translate(tgtVA)
	d.cIssued.Inc()
	cache.TouchLevel(d.into, pa, cache.Prefetch)
	if p.Next != nil {
		d.chaseFunc(p.Next, int(idx))
	}
}
