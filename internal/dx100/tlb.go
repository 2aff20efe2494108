package dx100

import "dx100/internal/memspace"

// TLB is the accelerator's small translation buffer (§3.6). The DX100
// APIs transfer the page table entries of the stream/indirect regions
// once for the application lifetime, so in steady state every lookup
// hits; the model still tracks capacity and counts misses.
type TLB struct {
	capacity int
	entries  map[uint64]uint64 // vpn -> pfn
	order    []uint64          // FIFO replacement
	space    *memspace.Space

	Misses int
}

// NewTLB builds a TLB backed by the space's page table for walks.
func NewTLB(space *memspace.Space, capacity int) *TLB {
	return &TLB{capacity: capacity, entries: make(map[uint64]uint64), space: space}
}

// Preload inserts the PTEs covering a region — the PTE-transfer API of
// §4.1.
func (t *TLB) Preload(r memspace.Region) {
	first := uint64(r.Base) >> memspace.HugePageBits
	last := uint64(r.End()-1) >> memspace.HugePageBits
	for vpn := first; vpn <= last; vpn++ {
		if pfn, ok := t.space.PTE(vpn); ok {
			t.insert(vpn, pfn)
		}
	}
}

func (t *TLB) insert(vpn, pfn uint64) {
	if _, ok := t.entries[vpn]; ok {
		return
	}
	if len(t.entries) >= t.capacity {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, old)
	}
	t.entries[vpn] = pfn
	t.order = append(t.order, vpn)
}

// Translate maps va, reporting whether the lookup hit. A miss walks
// the page table and fills the entry (the caller charges the walk
// latency).
func (t *TLB) Translate(va memspace.VAddr) (memspace.PAddr, bool) {
	vpn := uint64(va) >> memspace.HugePageBits
	if pfn, ok := t.entries[vpn]; ok {
		return memspace.PAddr(pfn<<memspace.HugePageBits | uint64(va)&(memspace.HugePageSize-1)), true
	}
	t.Misses++
	pa := t.space.Translate(va)
	t.insert(vpn, uint64(pa)>>memspace.HugePageBits)
	return pa, false
}
