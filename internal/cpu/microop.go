// Package cpu models a simplified out-of-order core: a ROB-sized
// sliding window over a µop stream, with load/store queues, limited
// issue width and memory ports, dependence tracking, and the fence
// serialization of atomic read-modify-writes. These are exactly the
// structural limits the DX100 paper identifies as capping a
// conventional core's memory-level parallelism (§2.2): the model
// reproduces them without simulating a full ISA.
package cpu

import (
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// Kind classifies a µop.
type Kind uint8

const (
	// ALU is a register-to-register operation (address calculation,
	// compare, arithmetic).
	ALU Kind = iota
	// Load reads memory through the cache hierarchy.
	Load
	// Store writes memory through the cache hierarchy.
	Store
	// Atomic is a locked read-modify-write: it issues only at the head
	// of the memory order and fences younger memory operations, the
	// behaviour that makes baseline RMW loops slow (§6.1).
	Atomic
	// Barrier completes only once its Ready predicate holds and it is
	// the oldest op in the window (used to model polling a DX100 tile
	// ready bit).
	Barrier
	// Effect runs a side-effect callback when it issues (used to model
	// the memory-mapped stores that send a DX100 instruction).
	Effect
)

// MicroOp is one unit of work flowing through the core.
type MicroOp struct {
	Kind Kind
	// Addr is the virtual address touched by Load/Store/Atomic.
	Addr memspace.VAddr
	// Lat is the ALU execution latency (0 means 1 cycle).
	Lat uint8
	// Dep1/Dep2 are backward dependence distances: the op depends on
	// the µops Dep1 and Dep2 positions earlier in the stream. Zero
	// means no dependence.
	Dep1, Dep2 uint32
	// Weight is the number of dynamic instructions this µop stands
	// for (0 means 1). It consumes that many fetch/retire slots and
	// adds that much to the instruction count, letting a single µop
	// model a short burst of trivial instructions.
	Weight uint16
	// Ready gates a Barrier op. It must be a pure predicate over
	// simulator state — no side effects and no dependence on how often
	// it is called — because the core also evaluates it from NextWake
	// and SkipCycles while deciding whether a spinning barrier can be
	// fast-forwarded.
	Ready func() bool
	// Emit runs when an Effect op executes.
	Emit func(now sim.Cycle)
}

// released reports whether a Barrier op may complete: it has no Ready
// predicate, or the predicate holds.
func (op *MicroOp) released() bool { return op.Ready == nil || op.Ready() }

func (op *MicroOp) weight() int {
	if op.Weight == 0 {
		return 1
	}
	return int(op.Weight)
}

// Stream produces µops. Next writes the next µop into the caller's
// slot *op and reports true; once the program has ended it reports
// false and leaves *op untouched. A stream that delegates passes the
// slot on, so a µop is copied once however many streams it crosses.
type Stream interface {
	Next(op *MicroOp) bool
}

// SliceStream adapts a fixed []MicroOp to the Stream interface.
type SliceStream struct {
	Ops []MicroOp
	pos int
}

// Next implements Stream.
func (s *SliceStream) Next(op *MicroOp) bool {
	if s.pos >= len(s.Ops) {
		return false
	}
	*op = s.Ops[s.pos]
	s.pos++
	return true
}
