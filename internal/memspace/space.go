// Package memspace provides the simulated 64-bit virtual address space
// that all models in this repository operate on. Workloads allocate
// named arrays; the space hands out huge-page-aligned virtual
// addresses, maintains a huge-page table mapping them to physical
// frames, and stores the actual bytes, so both the functional DX100
// machine and the timing simulators see a single source of truth.
package memspace

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// VAddr is a simulated virtual address.
type VAddr uint64

// PAddr is a simulated physical address.
type PAddr uint64

const (
	// HugePageBits is log2 of the huge-page size (2 MiB), the mapping
	// granularity of the space (§3.6 of the paper: stream and indirect
	// regions are mapped through huge pages).
	HugePageBits = 21
	// HugePageSize is the huge-page size in bytes.
	HugePageSize = 1 << HugePageBits
	// LineBits is log2 of the cache-line size.
	LineBits = 6
	// LineSize is the cache-line size in bytes.
	LineSize = 1 << LineBits
)

// Region is an allocated range of virtual addresses.
type Region struct {
	Name string
	Base VAddr
	Size uint64
}

// Contains reports whether va falls inside the region.
func (r Region) Contains(va VAddr) bool {
	return va >= r.Base && uint64(va-r.Base) < r.Size
}

// End returns one past the last byte of the region.
func (r Region) End() VAddr { return r.Base + VAddr(r.Size) }

type alloc struct {
	region Region
	data   []byte
}

// Space is a simulated address space. The zero value is not usable;
// call New.
type Space struct {
	allocs  []alloc // sorted by Base
	nextVA  VAddr
	nextPFN uint64
	// frames[vpn-1] is the physical frame of virtual page vpn: Alloc
	// maps pages contiguously from page 1, the first allocation's base.
	frames []uint64
}

// New returns an empty space. The first allocation starts at a non-zero
// base so that address 0 is never a valid pointer.
func New() *Space {
	return &Space{nextVA: VAddr(HugePageSize)}
}

// Alloc reserves size bytes under the given name, mapping every huge
// page it spans to a fresh physical frame. The returned region is
// huge-page aligned.
func (s *Space) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = 1
	}
	base := s.nextVA
	pages := (size + HugePageSize - 1) / HugePageSize
	s.nextVA += VAddr(pages * HugePageSize)
	for p := uint64(0); p < pages; p++ {
		vpn := uint64(base)>>HugePageBits + p
		if vpn != uint64(len(s.frames))+1 {
			panic(fmt.Sprintf("memspace: page %d breaks the contiguous mapping from page 1", vpn))
		}
		s.frames = append(s.frames, s.nextPFN)
		s.nextPFN++
	}
	a := alloc{
		region: Region{Name: name, Base: base, Size: size},
		data:   make([]byte, size),
	}
	s.allocs = append(s.allocs, a)
	return a.region
}

// Translate maps a virtual address to a physical address through the
// huge-page table. It panics on an unmapped address, which indicates a
// model bug (a wild access the real hardware would fault on).
func (s *Space) Translate(va VAddr) PAddr {
	pfn, ok := s.PTE(uint64(va) >> HugePageBits)
	if !ok {
		panic(fmt.Sprintf("memspace: translate of unmapped address %#x", uint64(va)))
	}
	return PAddr(pfn<<HugePageBits | uint64(va)&(HugePageSize-1))
}

// PTE returns the physical frame for a virtual page number, for the
// DX100 TLB model. ok is false for unmapped pages.
func (s *Space) PTE(vpn uint64) (pfn uint64, ok bool) {
	// Page 0 is never mapped; vpn-1 wraps it past the end.
	if vpn-1 >= uint64(len(s.frames)) {
		return 0, false
	}
	return s.frames[vpn-1], true
}

// lookup locates the allocation containing va.
func (s *Space) lookup(va VAddr) (*alloc, bool) {
	i := sort.Search(len(s.allocs), func(i int) bool {
		return s.allocs[i].region.End() > va
	})
	if i < len(s.allocs) && s.allocs[i].region.Contains(va) {
		return &s.allocs[i], true
	}
	return nil, false
}

// findAlloc locates the allocation containing va, panicking if none
// does.
func (s *Space) findAlloc(va VAddr) *alloc {
	if a, ok := s.lookup(va); ok {
		return a
	}
	panic(fmt.Sprintf("memspace: access to unallocated address %#x", uint64(va)))
}

// ReadWord reads a size-byte little-endian word (size 4 or 8) at va.
func (s *Space) ReadWord(va VAddr, size int) uint64 {
	a := s.findAlloc(va)
	off := uint64(va - a.region.Base)
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(a.data[off:]))
	case 8:
		return binary.LittleEndian.Uint64(a.data[off:])
	default:
		panic(fmt.Sprintf("memspace: unsupported word size %d", size))
	}
}

// WriteWord writes a size-byte little-endian word (size 4 or 8) at va.
func (s *Space) WriteWord(va VAddr, size int, v uint64) {
	a := s.findAlloc(va)
	off := uint64(va - a.region.Base)
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(a.data[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(a.data[off:], v)
	default:
		panic(fmt.Sprintf("memspace: unsupported word size %d", size))
	}
}

// Words is a resolved view of n consecutive words of one allocation:
// its base address, word size and length, and the bytes behind them.
// Reading or writing through it costs no address lookup, so code that
// touches an array word by word resolves the array once, through
// Space.Words, and keeps the view.
type Words struct {
	base VAddr
	size int
	n    int
	data []byte
}

// Words returns the view of n size-byte words (size 4 or 8) starting
// at va. It fails unless the range lies inside one allocation.
func (s *Space) Words(va VAddr, size, n int) (Words, error) {
	if size != 4 && size != 8 {
		return Words{}, fmt.Errorf("memspace: unsupported word size %d", size)
	}
	a, ok := s.lookup(va)
	if !ok {
		return Words{}, fmt.Errorf("memspace: %d words at unallocated address %#x", n, uint64(va))
	}
	off := uint64(va - a.region.Base)
	if n < 0 || uint64(n)*uint64(size) > a.region.Size-off {
		return Words{}, fmt.Errorf("memspace: %d %d-byte words at %#x overrun %s", n, size, uint64(va), a.region.Name)
	}
	return Words{base: va, size: size, n: n, data: a.data[off : off+uint64(n*size)]}, nil
}

// Base returns the virtual address of word 0.
func (w Words) Base() VAddr { return w.base }

// ElemSize returns the byte width of each word.
func (w Words) ElemSize() int { return w.size }

// Len returns the number of words.
func (w Words) Len() int { return w.n }

// Addr returns the virtual address of word i.
func (w Words) Addr(i int) VAddr { return w.base + VAddr(i*w.size) }

// Get reads word i. It panics unless 0 <= i < Len().
func (w Words) Get(i int) uint64 {
	if w.size == 4 {
		return uint64(binary.LittleEndian.Uint32(w.data[i*4:]))
	}
	return binary.LittleEndian.Uint64(w.data[i*8:])
}

// Set writes word i, truncated to the word size. It panics unless
// 0 <= i < Len().
func (w Words) Set(i int, v uint64) {
	if w.size == 4 {
		binary.LittleEndian.PutUint32(w.data[i*4:], uint32(v))
		return
	}
	binary.LittleEndian.PutUint64(w.data[i*8:], v)
}

// Regions returns all allocated regions in address order.
func (s *Space) Regions() []Region {
	rs := make([]Region, len(s.allocs))
	for i, a := range s.allocs {
		rs[i] = a.region
	}
	return rs
}

// RegionOf returns the region containing va.
func (s *Space) RegionOf(va VAddr) Region {
	return s.findAlloc(va).region
}

// LineAddr returns the address of the cache line containing a.
func LineAddr[A ~uint64](a A) A { return a &^ (LineSize - 1) }
