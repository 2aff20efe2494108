package dram

import (
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// Kind distinguishes read and write requests.
type Kind uint8

const (
	// Read fetches one cache line.
	Read Kind = iota
	// Write stores one cache line.
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Request is one cache-line-granularity DRAM access. OnDone fires when
// the data burst completes (read data available / write committed).
type Request struct {
	Addr   memspace.PAddr
	Kind   Kind
	OnDone func(now sim.Cycle)

	coord Coord
	// slice and bg index the channel's bank array and bank-group
	// trackers; Submit resolves them once from coord.
	slice, bg   int
	seq         uint64
	requiredAct bool
	requiredPre bool
}
