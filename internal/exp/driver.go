package exp

import (
	"fmt"

	"dx100/internal/cpu"
	"dx100/internal/dx100"
	"dx100/internal/loopir"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// creditLimit is how many undispatched instructions a driver core may
// have outstanding at the accelerator before it stalls — the polling
// flow control of the manual API (§4.1).
const creditLimit = 24

// driver builds the core-side µop stream that offloads one instance's
// share of the kernels to its accelerator: register and tile writes,
// the three memory-mapped stores per instruction (Weight 3), credit
// barriers, and — for LD-type workloads — the scratchpad consume loop.
type driver struct {
	accel   *dx100.Accel
	inst    *workloads.Instance
	consume bool

	kernels  []*compiledKernel
	ki       int
	nextLo   int64
	buf      []cpu.MicroOp
	pos      int
	count    uint64 // µops emitted (for dependence distances)
	lastBar  uint64 // handle of the most recent barrier
	sent     int    // instructions sent so far
	prevSent int    // instructions sent before the previous chunk
	prevN    int    // outer iterations of the previous chunk
	chunkIdx int
	finished bool
}

type compiledKernel struct {
	c      *loopir.Compiled
	lo, hi int64
	chunk  int
	// doubleBuffer marks kernels whose tile programs fit half the
	// scratchpad, letting consecutive chunks use disjoint tile banks
	// and pipeline through the scoreboard.
	doubleBuffer bool
}

// setBank windows the compiler's allocators onto one half (or all) of
// the scratchpad and register file.
func (ck *compiledKernel) setBank(chunkIdx int) {
	if ck.doubleBuffer {
		base := (chunkIdx % 2) * 16
		ck.c.TileBase, ck.c.TileLimit = base, base+16
		ck.c.RegBase, ck.c.RegLimit = base, base+16
	} else {
		ck.c.TileBase, ck.c.TileLimit = 0, 32
		ck.c.RegBase, ck.c.RegLimit = 0, 32
	}
}

// newDriver compiles the instance's kernels for [share of] the outer
// ranges. It refuses a kernel whose longest inner range exceeds the
// tile: one outer iteration's fused range would overflow it.
func newDriver(a *dx100.Accel, inst *workloads.Instance, tileElems int, part, parts int) (*driver, error) {
	d := &driver{accel: a, inst: inst, consume: inst.Consume}
	for ki, k := range inst.Kernels {
		if m := inst.MaxRange[ki]; m > tileElems {
			return nil, fmt.Errorf("exp: %s: inner range of %d elements exceeds the %d-element tile", k.Name, m, tileElems)
		}
		c, err := loopir.Compile(k, inst.Binder, tileElems)
		if err != nil {
			return nil, fmt.Errorf("exp: compile %s: %w", k.Name, err)
		}
		env := &loopir.Env{Params: k.Params}
		lo, hi, err := loopir.InterpretBounds(k, env)
		if err != nil {
			return nil, err
		}
		span := hi - lo
		ck := &compiledKernel{
			c:     c,
			lo:    lo + span*int64(part)/int64(parts),
			hi:    lo + span*int64(part+1)/int64(parts),
			chunk: inst.ChunkFor(ki, tileElems),
		}
		// Probe whether one chunk's program fits half the scratchpad.
		if ck.lo < ck.hi {
			probeHi := ck.lo + int64(ck.chunk)
			if probeHi > ck.hi {
				probeHi = ck.hi
			}
			ck.doubleBuffer = true
			ck.setBank(0)
			if _, err := c.TileProgram(ck.lo, probeHi); err != nil {
				ck.doubleBuffer = false
			}
		}
		d.kernels = append(d.kernels, ck)
	}
	if len(d.kernels) > 0 {
		d.nextLo = d.kernels[0].lo
	}
	return d, nil
}

// push appends a µop, tracking handles so effects chain to the latest
// barrier (keeping sends behind flow control).
func (d *driver) push(op cpu.MicroOp) uint64 {
	if op.Kind == cpu.Effect && d.lastBar != 0 && op.Dep1 == 0 {
		op.Dep1 = uint32(d.count - (d.lastBar - 1))
	}
	d.buf = append(d.buf, op)
	d.count++
	return d.count // handle+1 so zero means "none"
}

func (d *driver) pushBarrier(ready func() bool) {
	d.lastBar = d.push(cpu.MicroOp{Kind: cpu.Barrier, Ready: ready})
}

// emitChunk lowers and emits the next chunk of the current kernel.
func (d *driver) emitChunk() error {
	ck := d.kernels[d.ki]
	lo := d.nextLo
	hi := lo + int64(ck.chunk)
	if hi > ck.hi {
		hi = ck.hi
	}
	ck.setBank(d.chunkIdx)
	d.chunkIdx++
	ops, err := ck.c.TileProgram(lo, hi)
	if err != nil {
		return err
	}
	a := d.accel
	for _, op := range ops {
		for _, rs := range op.Regs {
			rs := rs
			d.push(cpu.MicroOp{Kind: cpu.Effect, Weight: 1, Emit: func(sim.Cycle) { a.SetReg(rs.Reg, rs.Val) }})
		}
		if op.Tile != nil {
			td := op.Tile
			d.push(cpu.MicroOp{Kind: cpu.Effect, Weight: uint16(len(td.Values)), Emit: func(sim.Cycle) {
				t := a.Machine().Tile(td.Tile)
				for j, v := range td.Values {
					t.SetRaw(j, v)
				}
				t.SetSize(len(td.Values))
			}})
		}
		if op.Instr != nil {
			in := *op.Instr
			d.push(cpu.MicroOp{Kind: cpu.Effect, Weight: 3, Emit: func(sim.Cycle) {
				if err := a.Send(in); err != nil {
					panic(fmt.Sprintf("exp: send failed: %v", err))
				}
			}})
			d.sent++
		}
	}
	// Flow control: wait until the accelerator has drained enough of
	// its queue before the next chunk's sends.
	d.pushBarrier(func() bool { return a.QueueLen() < creditLimit })
	// Consume the previous chunk's gathered data from the scratchpad
	// while the accelerator works on this one.
	if d.consume && d.prevN > 0 {
		want := d.prevSent
		d.pushBarrier(func() bool { return a.RetiredInstrs() >= want })
		d.consumePrev()
	}
	d.prevSent = d.sent
	d.prevN = int(hi - lo)
	d.nextLo = hi
	if d.nextLo >= ck.hi {
		d.ki++
		if d.ki < len(d.kernels) {
			d.nextLo = d.kernels[d.ki].lo
		}
	}
	return nil
}

// consumePrev emits the core's loads of the previous chunk's gathered
// data from the scratchpad, each behind the latest barrier.
func (d *driver) consumePrev() {
	a := d.accel
	cap := a.Machine().Config().TileElems
	for e := 0; e < d.prevN; e++ {
		d.push(cpu.MicroOp{Kind: cpu.Load, Addr: a.TileElemVA(0, e%cap), Dep1: uint32(d.count - (d.lastBar - 1))})
		d.push(cpu.MicroOp{Kind: cpu.ALU, Dep1: 1})
	}
}

// Next implements cpu.Stream.
func (d *driver) Next(op *cpu.MicroOp) bool {
	for d.pos >= len(d.buf) {
		d.buf = d.buf[:0]
		d.pos = 0
		if d.ki >= len(d.kernels) {
			if d.finished {
				return false
			}
			d.finished = true
			// Final synchronization: wait for the accelerator to go
			// idle, then consume the trailing chunk.
			d.pushBarrier(d.accel.Idle)
			if d.consume {
				d.consumePrev()
			}
			continue
		}
		if err := d.emitChunk(); err != nil {
			panic(fmt.Sprintf("exp: driver emit failed: %v", err))
		}
	}
	*op = d.buf[d.pos]
	d.pos++
	return true
}

// attachDXStreams gives each accelerator instance a driver core; the
// outer iteration space is partitioned across instances (§6.6, core
// multiplexing). Non-driver cores idle (or share the consume load in
// spirit — the driver core performs it here).
func (s *system) attachDXStreams(inst *workloads.Instance) error {
	parts := s.cfg.Instances
	coresPer := s.cfg.Cores / parts
	for i := 0; i < parts; i++ {
		d, err := newDriver(s.accels[i], inst, s.cfg.Accel.Machine.TileElems, i, parts)
		if err != nil {
			return err
		}
		s.cores[i*coresPer].Run(d)
	}
	// Remaining cores run empty programs.
	for c := 0; c < s.cfg.Cores; c++ {
		if c%coresPer != 0 || c/coresPer >= parts {
			s.cores[c].Run(&cpu.SliceStream{})
		}
	}
	return nil
}
