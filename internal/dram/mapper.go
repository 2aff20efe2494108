package dram

import (
	"math/bits"

	"dx100/internal/memspace"
)

// Coord identifies one DRAM location at cache-line granularity.
type Coord struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int
	Row       int
	Column    int // cache-line index within the row
}

// Slice returns the flattened (rank, bank-group, bank) index within the
// coordinate's channel — the Row Table slice DX100 uses (§3.2).
func (c Coord) Slice(p *Params) int {
	return (c.Rank*p.BankGroups+c.BankGroup)*p.Banks + c.Bank
}

// GlobalBank returns a unique bank id across all channels.
func (c Coord) GlobalBank(p *Params) int {
	return c.Channel*p.BanksPerChannel() + c.Slice(p)
}

// Mapper translates physical addresses to DRAM coordinates. The bit
// layout, from least significant to most significant above the 64-byte
// line offset, is:
//
//	channel | bank group | bank | rank | column | row
//
// Placing channel and bank-group bits directly above the line offset
// means consecutive cache lines interleave across channels and bank
// groups — the layout that makes streaming accesses fast and leaves
// random indirect accesses suffering row conflicts, as in the paper's
// baseline.
type Mapper struct {
	chBits   int
	bgBits   int
	baBits   int
	raBits   int
	colBits  int
	chShift  int
	bgShift  int
	baShift  int
	raShift  int
	colShift int
	rowShift int
}

// NewMapper builds a mapper for the given organization. All
// organization sizes must be powers of two.
func NewMapper(p Params) *Mapper {
	m := &Mapper{}
	m.chBits = log2(p.Channels)
	m.bgBits = log2(p.BankGroups)
	m.baBits = log2(p.Banks)
	m.raBits = log2(p.Ranks)
	m.colBits = log2(p.LinesPerRow())
	m.chShift = memspace.LineBits
	m.bgShift = m.chShift + m.chBits
	m.baShift = m.bgShift + m.bgBits
	m.raShift = m.baShift + m.baBits
	m.colShift = m.raShift + m.raBits
	m.rowShift = m.colShift + m.colBits
	return m
}

func log2(v int) int {
	if v <= 0 || v&(v-1) != 0 {
		panic("dram: organization sizes must be powers of two")
	}
	return bits.TrailingZeros(uint(v))
}

func field(a uint64, shift, width int) int {
	return int(a >> shift & (1<<width - 1))
}

// Map decodes a physical address into DRAM coordinates.
func (m *Mapper) Map(pa memspace.PAddr) Coord {
	a := uint64(pa)
	return Coord{
		Channel:   field(a, m.chShift, m.chBits),
		BankGroup: field(a, m.bgShift, m.bgBits),
		Bank:      field(a, m.baShift, m.baBits),
		Rank:      field(a, m.raShift, m.raBits),
		Column:    field(a, m.colShift, m.colBits),
		Row:       int(a >> m.rowShift),
	}
}

// Unmap is the inverse of Map; it returns the line-aligned physical
// address of a coordinate.
func (m *Mapper) Unmap(c Coord) memspace.PAddr {
	a := uint64(c.Row)<<m.rowShift |
		uint64(c.Column)<<m.colShift |
		uint64(c.Rank)<<m.raShift |
		uint64(c.Bank)<<m.baShift |
		uint64(c.BankGroup)<<m.bgShift |
		uint64(c.Channel)<<m.chShift
	return memspace.PAddr(a)
}
