package dx100

import (
	"fmt"

	"dx100/internal/memspace"
)

// MMIO is the memory-mapped control interface of Figure 6. Alongside
// the cacheable scratchpad-data region, the accelerator exposes
// uncacheable regions for tile sizes, tile ready bits, the scalar
// register file, and instruction reception; an instruction arrives as
// three 64-bit stores to consecutive words of the reception region
// (§3.5, §4.1).
//
// The timing driver models these stores as weighted core µops; MMIO is
// the architectural decode path, so software (and tests) can drive the
// accelerator exactly the way the paper's library does.
type MMIO struct {
	a      *Accel
	region memspace.Region

	// Instruction assembly buffer: three stores make one instruction.
	words [3]uint64
	have  int
}

// Control-region layout, in bytes from the region base (after
// Figure 6, with the tile-size region widened to a word per tile).
const (
	mmioSizeOff  = 0    // 256 B: tile sizes, 8 B per tile
	mmioReadyOff = 256  // 64 B: ready bits, one bit per tile
	mmioRegOff   = 320  // 1 KB: register file, 8 B per register
	mmioInstrOff = 1344 // 24 B: instruction reception
	mmioSize     = 1368
)

// MMIO returns (allocating on first use) the accelerator's control
// interface.
func (a *Accel) MMIO() *MMIO {
	if a.mmio == nil {
		r := a.space.Alloc(a.prefix+"mmio", mmioSize)
		a.mmio = &MMIO{a: a, region: r}
	}
	return a.mmio
}

// InstrVA returns the address of instruction-reception word w (0..2).
func (m *MMIO) InstrVA(w int) memspace.VAddr {
	return m.region.Base + mmioInstrOff + memspace.VAddr(8*w)
}

// RegVA returns the address of scalar register r.
func (m *MMIO) RegVA(r uint8) memspace.VAddr {
	return m.region.Base + mmioRegOff + memspace.VAddr(8*r)
}

// ReadyVA returns the address of the ready-bit word covering tile t.
func (m *MMIO) ReadyVA(t uint8) memspace.VAddr {
	return m.region.Base + mmioReadyOff + memspace.VAddr(8*(int(t)/64))
}

// SizeVA returns the address of tile t's size word.
func (m *MMIO) SizeVA(t uint8) memspace.VAddr {
	return m.region.Base + mmioSizeOff + memspace.VAddr(8*int(t))
}

// Store decodes one 64-bit store to the control region: register-file
// writes take effect immediately; the third store to the reception
// region assembles and enqueues an instruction.
func (m *MMIO) Store(va memspace.VAddr, val uint64) error {
	if !m.region.Contains(va) {
		return fmt.Errorf("dx100: MMIO store outside control region: %#x", uint64(va))
	}
	off := uint64(va - m.region.Base)
	switch {
	case off >= mmioInstrOff && off < mmioInstrOff+24:
		w := int(off-mmioInstrOff) / 8
		if w != m.have {
			return fmt.Errorf("dx100: out-of-order instruction store (word %d, expected %d)", w, m.have)
		}
		m.words[w] = val
		m.have++
		if m.have == 3 {
			m.have = 0
			return m.a.Send(Decode(m.words))
		}
		return nil
	case off >= mmioRegOff && off < mmioRegOff+1024:
		r := uint8((off - mmioRegOff) / 8)
		if int(r) >= len(m.a.m.regs) {
			return fmt.Errorf("dx100: register %d out of range", r)
		}
		m.a.SetReg(r, val)
		return nil
	default:
		return fmt.Errorf("dx100: store to read-only control word %#x", off)
	}
}

// Load services a 64-bit load from the control region: ready-bit words
// (one bit per tile, used by the wait API's polling loop) and tile
// sizes.
func (m *MMIO) Load(va memspace.VAddr) (uint64, error) {
	if !m.region.Contains(va) {
		return 0, fmt.Errorf("dx100: MMIO load outside control region: %#x", uint64(va))
	}
	off := uint64(va - m.region.Base)
	switch {
	case off >= mmioReadyOff && off < mmioReadyOff+64:
		base := int(off-mmioReadyOff) / 8 * 64
		var bits uint64
		for t := 0; t < 64 && base+t < m.a.cfg.Machine.Tiles; t++ {
			if m.a.TileReady(uint8(base + t)) {
				bits |= 1 << uint(t)
			}
		}
		return bits, nil
	case off < mmioSizeOff+256:
		t := int(off-mmioSizeOff) / 8
		if t >= m.a.cfg.Machine.Tiles {
			return 0, fmt.Errorf("dx100: tile size word %d out of range", t)
		}
		return uint64(m.a.Machine().Tile(uint8(t)).Size()), nil
	default:
		return 0, fmt.Errorf("dx100: load from write-only control word %#x", off)
	}
}

// Wait is the polling synchronization API of §4.1: it spins on the
// ready-bit word until tile t reads ready, returning the number of
// polls (for instruction accounting). It is a functional helper; in
// timed runs the core's Barrier µop models the same loop.
func (m *MMIO) Wait(t uint8) (polls int, err error) {
	for {
		bits, err := m.Load(m.ReadyVA(t))
		if err != nil {
			return polls, err
		}
		polls++
		if bits&(1<<uint(int(t)%64)) != 0 {
			return polls, nil
		}
		if polls > 1<<20 {
			return polls, fmt.Errorf("dx100: wait on tile %d did not complete (functional mode cannot make progress)", t)
		}
	}
}
