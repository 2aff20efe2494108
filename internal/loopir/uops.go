package loopir

import (
	"fmt"

	"dx100/internal/cpu"
	"dx100/internal/dx100"
	"dx100/internal/memspace"
)

// UopGen generates the *baseline* execution of a kernel: the µop
// stream a conventional core runs for iterations [lo, hi), with the
// dependence structure (index load → address calculation → indirect
// access) that limits the baseline's memory-level parallelism (§2.2).
// It interprets the kernel against simulated memory while emitting, so
// the baseline run both exhibits faithful timing and produces the
// correct results for verification.
//
// NewUopGen resolves the kernel once, before generation: variables
// become slots of a frame, parameters and literals constants, and
// array names memory views. Generation then touches no name; Interpret
// stays the name-based oracle the generated memory is checked against.
type UopGen struct {
	body   []rstmt
	frame  []uint64 // slot 0 holds the outer variable, one slot per Inner loop after it
	i, hi  int64
	atomic bool
	emitter
	pos int // next op of buf to hand out
}

// NewUopGen resolves kernel k against binding b in space sp and
// returns the generator of its iterations [lo, hi). atomic emits RMWs
// as locked operations, required for correctness on a multi-core
// baseline (§6.1). It fails on an unknown or unbound array, an array
// outside simulated memory, an unknown parameter or an unbound
// variable.
func NewUopGen(k *Kernel, b Binder, sp *memspace.Space, lo, hi int64, atomic bool) (*UopGen, error) {
	r := &resolver{k: k, b: b, sp: sp, vars: map[string]int{k.Var: 0}, slots: 1, arrays: map[string]*rarray{}}
	body, err := r.stmts(k.Body)
	if err != nil {
		return nil, fmt.Errorf("loopir: %s: %w", k.Name, err)
	}
	return &UopGen{body: body, frame: make([]uint64, r.slots), i: lo, hi: hi, atomic: atomic}, nil
}

const noHandle = ^uint64(0)

type emitter struct {
	count uint64
	buf   []cpu.MicroOp
}

// push emits op depending on the ops with handles d1 and d2 (noHandle
// for none), returning op's handle. The first real handle becomes
// Dep1, the second Dep2.
func (e *emitter) push(op cpu.MicroOp, d1, d2 uint64) uint64 {
	if d1 == noHandle {
		d1, d2 = d2, noHandle
	}
	if d1 != noHandle {
		op.Dep1 = uint32(e.count - d1)
		if d2 != noHandle {
			op.Dep2 = uint32(e.count - d2)
		}
	}
	e.buf = append(e.buf, op)
	e.count++
	return e.count - 1
}

// Next implements cpu.Stream. It generates one outer iteration at a
// time into the emitter's buffer and hands the ops out in order.
func (g *UopGen) Next(op *cpu.MicroOp) bool {
	for g.pos >= len(g.buf) {
		if g.i >= g.hi {
			return false
		}
		g.buf = g.buf[:0]
		g.pos = 0
		g.frame[0] = uint64(g.i)
		// Loop overhead: induction increment + bound check.
		g.push(cpu.MicroOp{Kind: cpu.ALU, Weight: 2}, noHandle, noHandle)
		g.stmts(g.body)
		g.i++
	}
	*op = g.buf[g.pos]
	g.pos++
	return true
}

// rarray is an array operand resolved to its memory view.
type rarray struct {
	name string
	dt   dx100.DType
	w    memspace.Words
}

// index checks idx against the array's length, panicking with the
// generator's out-of-range message, and returns it as a view index.
func (a *rarray) index(idx uint64) int {
	if n := a.w.Len(); idx >= uint64(n) {
		panic(fmt.Sprintf("loopir: baseline generation failed: %s[%d] out of range %d", a.name, int64(idx), n))
	}
	return int(idx)
}

type rexprKind uint8

const (
	rConst rexprKind = iota
	rVar
	rLoad
	rBin
)

// rexpr is an Expr resolved against one kernel, binding and space.
type rexpr struct {
	kind rexprKind
	val  uint64      // rConst: the value; rVar: the frame slot
	op   dx100.ALUOp // rBin
	dt   dx100.DType // rBin: the type it evaluates in (exprDType)
	arr  *rarray     // rLoad
	l, r *rexpr      // rLoad: l is the index; rBin: the operands
}

type rstmtKind uint8

const (
	rStore rstmtKind = iota
	rUpdate
	rIf
	rInner
)

// rstmt is a Stmt resolved against one kernel, binding and space.
type rstmt struct {
	kind rstmtKind
	arr  *rarray     // rStore, rUpdate
	op   dx100.ALUOp // rUpdate
	// a is the index (rStore, rUpdate), the condition (rIf) or the
	// lower bound (rInner); b is the value or the upper bound.
	a, b *rexpr
	slot int // rInner: the loop variable's frame slot
	body []rstmt
}

// eval interprets an expression, emitting its µops, and returns the
// value and the handle of the op producing it.
func (g *UopGen) eval(x *rexpr) (uint64, uint64) {
	switch x.kind {
	case rConst:
		return x.val, noHandle
	case rVar:
		return g.frame[x.val], noHandle
	case rLoad:
		idx, idxH := g.eval(x.l)
		i := x.arr.index(idx)
		h := g.push(cpu.MicroOp{Kind: cpu.Load, Addr: x.arr.w.Addr(i)}, idxH, noHandle)
		return x.arr.w.Get(i), h
	default: // rBin
		l, lh := g.eval(x.l)
		r, rh := g.eval(x.r)
		h := g.push(cpu.MicroOp{Kind: cpu.ALU}, lh, rh)
		return dx100.EvalALU(x.op, x.dt, l, r), h
	}
}

func (g *UopGen) stmts(body []rstmt) {
	for k := range body {
		s := &body[k]
		switch s.kind {
		case rStore:
			idx, idxH := g.eval(s.a)
			val, valH := g.eval(s.b)
			i := s.arr.index(idx)
			g.push(cpu.MicroOp{Kind: cpu.Store, Addr: s.arr.w.Addr(i)}, idxH, valH)
			s.arr.w.Set(i, val)
		case rUpdate:
			idx, idxH := g.eval(s.a)
			val, valH := g.eval(s.b)
			i := s.arr.index(idx)
			va := s.arr.w.Addr(i)
			s.arr.w.Set(i, dx100.EvalALU(s.op, s.arr.dt, s.arr.w.Get(i), val))
			if g.atomic {
				g.push(cpu.MicroOp{Kind: cpu.Atomic, Addr: va}, idxH, valH)
			} else {
				lh := g.push(cpu.MicroOp{Kind: cpu.Load, Addr: va}, idxH, noHandle)
				ah := g.push(cpu.MicroOp{Kind: cpu.ALU}, lh, valH)
				g.push(cpu.MicroOp{Kind: cpu.Store, Addr: va}, ah, noHandle)
			}
		case rIf:
			c, _ := g.eval(s.a)
			// The branch itself.
			g.push(cpu.MicroOp{Kind: cpu.ALU}, noHandle, noHandle)
			if c != 0 {
				g.stmts(s.body)
			}
		case rInner:
			lo, _ := g.eval(s.a)
			hi, _ := g.eval(s.b)
			for j := lo; int64(j) < int64(hi); j++ {
				g.frame[s.slot] = j
				g.push(cpu.MicroOp{Kind: cpu.ALU, Weight: 2}, noHandle, noHandle) // inner loop overhead
				g.stmts(s.body)
			}
		}
	}
}

// resolver compiles a kernel's body for UopGen. vars maps each bound
// variable to its frame slot exactly as Interpret's variable map binds
// it at that point of the body: an Inner loop binds its variable for
// its body and unbinds it after.
type resolver struct {
	k      *Kernel
	b      Binder
	sp     *memspace.Space
	vars   map[string]int
	slots  int
	arrays map[string]*rarray
}

func (r *resolver) array(name string) (*rarray, error) {
	if a, ok := r.arrays[name]; ok {
		return a, nil
	}
	info, ok := r.k.Arrays[name]
	if !ok {
		return nil, fmt.Errorf("unknown array %q", name)
	}
	base, ok := r.b.Base[name]
	if !ok {
		return nil, fmt.Errorf("unbound array %q", name)
	}
	w, err := r.sp.Words(base, info.DType.Size(), info.Len)
	if err != nil {
		return nil, fmt.Errorf("array %q: %w", name, err)
	}
	a := &rarray{name: name, dt: info.DType, w: w}
	r.arrays[name] = a
	return a, nil
}

func (r *resolver) expr(x Expr) (*rexpr, error) {
	switch ex := x.(type) {
	case Imm:
		return &rexpr{kind: rConst, val: uint64(ex.Val)}, nil
	case Param:
		v, ok := r.k.Params[ex.Name]
		if !ok {
			return nil, fmt.Errorf("unknown param %q", ex.Name)
		}
		return &rexpr{kind: rConst, val: v}, nil
	case Var:
		slot, ok := r.vars[ex.Name]
		if !ok {
			return nil, fmt.Errorf("unbound variable %q", ex.Name)
		}
		return &rexpr{kind: rVar, val: uint64(slot)}, nil
	case Load:
		idx, err := r.expr(ex.Idx)
		if err != nil {
			return nil, err
		}
		a, err := r.array(ex.Array)
		if err != nil {
			return nil, err
		}
		return &rexpr{kind: rLoad, arr: a, l: idx}, nil
	case Bin:
		l, err := r.expr(ex.L)
		if err != nil {
			return nil, err
		}
		rr, err := r.expr(ex.R)
		if err != nil {
			return nil, err
		}
		return &rexpr{kind: rBin, op: ex.Op, dt: exprDType(r.k, ex), l: l, r: rr}, nil
	}
	return nil, fmt.Errorf("unknown expr %T", x)
}

// pair resolves two expressions in order.
func (r *resolver) pair(a, b Expr) (*rexpr, *rexpr, error) {
	ra, err := r.expr(a)
	if err != nil {
		return nil, nil, err
	}
	rb, err := r.expr(b)
	return ra, rb, err
}

func (r *resolver) stmts(body []Stmt) ([]rstmt, error) {
	out := make([]rstmt, 0, len(body))
	for _, s := range body {
		var rs rstmt
		var err error
		switch st := s.(type) {
		case Store:
			rs.kind = rStore
			if rs.a, rs.b, err = r.pair(st.Idx, st.Val); err == nil {
				rs.arr, err = r.array(st.Array)
			}
		case Update:
			rs.kind, rs.op = rUpdate, st.Op
			if rs.a, rs.b, err = r.pair(st.Idx, st.Val); err == nil {
				rs.arr, err = r.array(st.Array)
			}
		case If:
			rs.kind = rIf
			if rs.a, err = r.expr(st.Cond); err == nil {
				rs.body, err = r.stmts(st.Body)
			}
		case Inner:
			rs.kind = rInner
			if rs.a, rs.b, err = r.pair(st.Lo, st.Hi); err == nil {
				rs.slot = r.slots
				r.slots++
				r.vars[st.Var] = rs.slot
				rs.body, err = r.stmts(st.Body)
				delete(r.vars, st.Var)
			}
		default:
			err = fmt.Errorf("unknown stmt %T", s)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}
