package loopir

import (
	"fmt"

	"dx100/internal/dx100"
	"dx100/internal/memspace"
)

// Binder maps kernel array names to their base virtual addresses in
// the simulated address space.
type Binder struct {
	Base map[string]memspace.VAddr
}

// RegSet is one memory-mapped register-file write.
type RegSet struct {
	Reg uint8
	Val uint64
}

// TileData is a host-written scratchpad tile (cores can write the
// scratchpad region directly, Figure 6).
type TileData struct {
	Tile   uint8
	Values []uint64
}

// Op is one step of a lowered tile program: register writes, an
// optional host tile write, and an optional DX100 instruction.
type Op struct {
	Regs  []RegSet
	Tile  *TileData
	Instr *dx100.Instr
}

// Compiled is a kernel that passed legality and is ready to emit
// per-tile DX100 programs — the output of the pass pipeline of
// Figure 7.
type Compiled struct {
	K         *Kernel
	B         Binder
	TileElems int
	// TileBase/RegBase/TileLimit/RegLimit window the scratchpad and
	// register allocation of the next TileProgram call, letting a
	// driver double-buffer consecutive chunks in disjoint tile banks
	// so the accelerator pipelines across chunks (§3.5 scoreboard).
	TileBase, TileLimit int
	RegBase, RegLimit   int
}

// Compile runs legality checking and binding validation.
func Compile(k *Kernel, b Binder, tileElems int) (*Compiled, error) {
	if err := Legal(k); err != nil {
		return nil, err
	}
	for name := range k.Arrays {
		if _, ok := b.Base[name]; !ok {
			return nil, fmt.Errorf("loopir: array %q not bound", name)
		}
	}
	if tileElems <= 0 {
		return nil, fmt.Errorf("loopir: tile size must be positive")
	}
	return &Compiled{K: k, B: b, TileElems: tileElems, TileLimit: 32, RegLimit: 32}, nil
}

// operand is a lowered expression: a scalar constant or a tile of
// per-iteration values.
type operand struct {
	scalar bool
	val    uint64
	tile   uint8
	dt     dx100.DType
}

// frame is one iteration space during lowering: the outer single loop
// (streamable) or a fused range-loop space produced by RNG.
type frame struct {
	parent  *frame
	varName string
	outer   bool
	lo, hi  int64 // outer frame bounds
	posTile uint8 // fused: RNG outer tile (positions in parent space)
	jTile   uint8 // fused: inner induction values
	cond    *uint8
}

type lowerCtx struct {
	c        *Compiled
	ops      []Op
	nextTile int
	nextReg  int
	memo     map[exprKey]operand
	vars     map[string]uint8 // outer induction-variable tiles, by name
	pvars    map[uint8]uint8  // parent-variable tiles, by fused position tile
}

// exprKey is one expression lowered in one frame. Every Expr type is a
// comparable value, so structurally equal expressions share a key.
type exprKey struct {
	f *frame
	x Expr
}

func (ctx *lowerCtx) allocTile() (uint8, error) {
	if ctx.nextTile >= ctx.c.TileLimit {
		return 0, fmt.Errorf("loopir: out of scratchpad tiles")
	}
	t := uint8(ctx.nextTile)
	ctx.nextTile++
	return t, nil
}

func (ctx *lowerCtx) allocReg() (uint8, error) {
	if ctx.nextReg >= ctx.c.RegLimit {
		return 0, fmt.Errorf("loopir: out of scalar registers")
	}
	r := uint8(ctx.nextReg)
	ctx.nextReg++
	return r, nil
}

func (ctx *lowerCtx) emit(op Op) { ctx.ops = append(ctx.ops, op) }

// TileProgram lowers the kernel body for outer iterations [lo, hi)
// into a DX100 program — the hoist/sink plus API-insertion passes of
// Figure 7 (c) and (d).
func (c *Compiled) TileProgram(lo, hi int64) ([]Op, error) {
	if hi-lo > int64(c.TileElems) {
		return nil, fmt.Errorf("loopir: tile [%d,%d) exceeds %d elements", lo, hi, c.TileElems)
	}
	ctx := &lowerCtx{
		c: c, nextTile: c.TileBase, nextReg: c.RegBase,
		memo: make(map[exprKey]operand), vars: make(map[string]uint8), pvars: make(map[uint8]uint8),
	}
	f := &frame{varName: c.K.Var, outer: true, lo: lo, hi: hi}
	if err := ctx.lowerStmts(f, c.K.Body); err != nil {
		return nil, err
	}
	return ctx.ops, nil
}

// param resolves a compile-time scalar.
func (ctx *lowerCtx) param(name string) (uint64, error) {
	v, ok := ctx.c.K.Params[name]
	if !ok {
		return 0, fmt.Errorf("loopir: unknown param %q", name)
	}
	return v, nil
}

// affine decomposes x as a*var + b with constant a, b.
func (ctx *lowerCtx) affine(x Expr, v string) (a, b int64, ok bool) {
	switch ex := x.(type) {
	case Var:
		if ex.Name == v {
			return 1, 0, true
		}
		return 0, 0, false
	case Imm:
		return 0, ex.Val, true
	case Param:
		pv, err := ctx.param(ex.Name)
		if err != nil {
			return 0, 0, false
		}
		return 0, int64(pv), true
	case Bin:
		la, lb, lok := ctx.affine(ex.L, v)
		ra, rb, rok := ctx.affine(ex.R, v)
		if !lok || !rok {
			return 0, 0, false
		}
		switch ex.Op {
		case dx100.OpAdd:
			return la + ra, lb + rb, true
		case dx100.OpSub:
			return la - ra, lb - rb, true
		case dx100.OpMul:
			if la == 0 {
				return ra * lb, rb * lb, true
			}
			if ra == 0 {
				return la * rb, lb * rb, true
			}
			return 0, 0, false
		case dx100.OpShl:
			if ra == 0 {
				return la << uint(rb), lb << uint(rb), true
			}
			return 0, 0, false
		}
		return 0, 0, false
	}
	return 0, 0, false
}

// varTile materializes the induction variable's per-iteration values
// as a tile, built with a host-seeded RNG iota.
func (ctx *lowerCtx) varTile(f *frame) (uint8, error) {
	if !f.outer {
		return f.jTile, nil
	}
	if t, ok := ctx.vars[f.varName]; ok {
		return t, nil
	}
	loT, err := ctx.allocTile()
	if err != nil {
		return 0, err
	}
	hiT, err := ctx.allocTile()
	if err != nil {
		return 0, err
	}
	posT, err := ctx.allocTile()
	if err != nil {
		return 0, err
	}
	iotaT, err := ctx.allocTile()
	if err != nil {
		return 0, err
	}
	strideReg, err := ctx.allocReg()
	if err != nil {
		return 0, err
	}
	ctx.emit(Op{Tile: &TileData{Tile: loT, Values: []uint64{uint64(f.lo)}}})
	ctx.emit(Op{Tile: &TileData{Tile: hiT, Values: []uint64{uint64(f.hi)}}})
	ctx.emit(Op{
		Regs:  []RegSet{{strideReg, 1}},
		Instr: &dx100.Instr{Op: dx100.RNG, TD: posT, TD2: iotaT, TS1: loT, TS2: hiT, RS1: strideReg, TC: dx100.NoTile},
	})
	ctx.vars[f.varName] = iotaT
	return iotaT, nil
}

// parentVarTile maps the parent frame's induction values into a fused
// frame: value = parentLo + position.
func (ctx *lowerCtx) parentVarTile(f *frame) (uint8, error) {
	p := f.parent
	if p == nil || !p.outer {
		return 0, fmt.Errorf("loopir: reference to variable beyond the enclosing loop is unsupported")
	}
	if t, ok := ctx.pvars[f.posTile]; ok {
		return t, nil
	}
	out, err := ctx.allocTile()
	if err != nil {
		return 0, err
	}
	reg, err := ctx.allocReg()
	if err != nil {
		return 0, err
	}
	ctx.emit(Op{
		Regs:  []RegSet{{reg, uint64(p.lo)}},
		Instr: &dx100.Instr{Op: dx100.ALUS, DType: dx100.U64, ALU: dx100.OpAdd, TD: out, TS1: f.posTile, RS1: reg, TC: dx100.NoTile},
	})
	ctx.pvars[f.posTile] = out
	return out, nil
}

var cmpMirror = map[dx100.ALUOp]dx100.ALUOp{
	dx100.OpLT: dx100.OpGT,
	dx100.OpLE: dx100.OpGE,
	dx100.OpGT: dx100.OpLT,
	dx100.OpGE: dx100.OpLE,
	dx100.OpEQ: dx100.OpEQ,
}

// lowerExpr lowers an expression in frame f, memoizing tile results.
func (ctx *lowerCtx) lowerExpr(f *frame, x Expr) (operand, error) {
	key := exprKey{f, x}
	if op, ok := ctx.memo[key]; ok {
		return op, nil
	}
	op, err := ctx.lowerExprUncached(f, x)
	if err != nil {
		return operand{}, err
	}
	ctx.memo[key] = op
	return op, nil
}

func (ctx *lowerCtx) lowerExprUncached(f *frame, x Expr) (operand, error) {
	switch ex := x.(type) {
	case Imm:
		return operand{scalar: true, val: uint64(ex.Val), dt: dx100.U64}, nil
	case Param:
		v, err := ctx.param(ex.Name)
		if err != nil {
			return operand{}, err
		}
		return operand{scalar: true, val: v, dt: dx100.U64}, nil
	case Var:
		if ex.Name == f.varName {
			t, err := ctx.varTile(f)
			return operand{tile: t, dt: dx100.U64}, err
		}
		if f.parent != nil && ex.Name == f.parent.varName {
			t, err := ctx.parentVarTile(f)
			return operand{tile: t, dt: dx100.U64}, err
		}
		return operand{}, fmt.Errorf("loopir: unbound variable %q", ex.Name)
	case Load:
		return ctx.lowerLoad(f, ex)
	case Bin:
		return ctx.lowerBin(f, ex)
	}
	return operand{}, fmt.Errorf("loopir: unknown expr %T", x)
}

func (ctx *lowerCtx) lowerLoad(f *frame, ex Load) (operand, error) {
	info, ok := ctx.c.K.Arrays[ex.Array]
	if !ok {
		return operand{}, fmt.Errorf("loopir: unknown array %q", ex.Array)
	}
	base := ctx.c.B.Base[ex.Array]
	// Streaming access: affine index in the outer loop hoists to SLD.
	if f.outer {
		if a, b, okA := ctx.affine(ex.Idx, f.varName); okA {
			td, err := ctx.allocTile()
			if err != nil {
				return operand{}, err
			}
			r1, err := ctx.allocReg()
			if err != nil {
				return operand{}, err
			}
			r2, err := ctx.allocReg()
			if err != nil {
				return operand{}, err
			}
			r3, err := ctx.allocReg()
			if err != nil {
				return operand{}, err
			}
			start := a*f.lo + b
			count := f.hi - f.lo
			ctx.emit(Op{
				Regs: []RegSet{{r1, uint64(start)}, {r2, uint64(count)}, {r3, uint64(a)}},
				Instr: &dx100.Instr{Op: dx100.SLD, DType: info.DType, Base: base,
					TD: td, RS1: r1, RS2: r2, RS3: r3, TC: condOf(f)},
			})
			return operand{tile: td, dt: info.DType}, nil
		}
	}
	// Indirect access: lower the index to a tile, then ILD.
	idxOp, err := ctx.lowerExpr(f, ex.Idx)
	if err != nil {
		return operand{}, err
	}
	if idxOp.scalar {
		return operand{}, fmt.Errorf("loopir: loop-invariant load of %q is unsupported", ex.Array)
	}
	td, err := ctx.allocTile()
	if err != nil {
		return operand{}, err
	}
	ctx.emit(Op{Instr: &dx100.Instr{Op: dx100.ILD, DType: info.DType, Base: base,
		TD: td, TS1: idxOp.tile, TC: condOf(f)}})
	return operand{tile: td, dt: info.DType}, nil
}

func (ctx *lowerCtx) lowerBin(f *frame, ex Bin) (operand, error) {
	l, err := ctx.lowerExpr(f, ex.L)
	if err != nil {
		return operand{}, err
	}
	r, err := ctx.lowerExpr(f, ex.R)
	if err != nil {
		return operand{}, err
	}
	dt := exprDType(ctx.c.K, ex)
	switch {
	case l.scalar && r.scalar:
		return operand{scalar: true, val: dx100.EvalALU(ex.Op, dt, l.val, r.val), dt: dt}, nil
	case !l.scalar && !r.scalar:
		td, err := ctx.allocTile()
		if err != nil {
			return operand{}, err
		}
		ctx.emit(Op{Instr: &dx100.Instr{Op: dx100.ALUV, DType: dt, ALU: ex.Op,
			TD: td, TS1: l.tile, TS2: r.tile, TC: condOf(f)}})
		return operand{tile: td, dt: dt}, nil
	case !l.scalar: // tile OP scalar
		return ctx.emitALUS(f, ex.Op, dt, l.tile, r.val)
	default: // scalar OP tile: swap when possible
		op := ex.Op
		if m, ok := cmpMirror[op]; ok {
			op = m
		} else if !op.Commutative() {
			return operand{}, fmt.Errorf("loopir: scalar %s tile is not lowerable", ex.Op)
		}
		return ctx.emitALUS(f, op, dt, r.tile, l.val)
	}
}

func (ctx *lowerCtx) emitALUS(f *frame, op dx100.ALUOp, dt dx100.DType, src uint8, scalar uint64) (operand, error) {
	td, err := ctx.allocTile()
	if err != nil {
		return operand{}, err
	}
	reg, err := ctx.allocReg()
	if err != nil {
		return operand{}, err
	}
	ctx.emit(Op{
		Regs: []RegSet{{reg, scalar}},
		Instr: &dx100.Instr{Op: dx100.ALUS, DType: dt, ALU: op,
			TD: td, TS1: src, RS1: reg, TC: condOf(f)},
	})
	return operand{tile: td, dt: dt}, nil
}

func condOf(f *frame) uint8 {
	if f.cond == nil {
		return dx100.NoTile
	}
	return *f.cond
}

// materialize turns a scalar operand into a tile of that constant in
// frame f.
func (ctx *lowerCtx) materialize(f *frame, op operand) (uint8, error) {
	if !op.scalar {
		return op.tile, nil
	}
	var src uint8
	var err error
	if f.outer {
		src, err = ctx.varTile(f)
	} else {
		src = f.jTile
	}
	if err != nil {
		return 0, err
	}
	zero, err := ctx.emitALUS(f, dx100.OpMul, dx100.U64, src, 0)
	if err != nil {
		return 0, err
	}
	cst, err := ctx.emitALUS(f, dx100.OpAdd, dx100.U64, zero.tile, op.val)
	if err != nil {
		return 0, err
	}
	return cst.tile, nil
}

// lowerStmts lowers a statement list in frame f.
func (ctx *lowerCtx) lowerStmts(f *frame, body []Stmt) error {
	for _, s := range body {
		switch st := s.(type) {
		case Store:
			if err := ctx.lowerStore(f, st); err != nil {
				return err
			}
		case Update:
			if err := ctx.lowerUpdate(f, st); err != nil {
				return err
			}
		case If:
			condOp, err := ctx.lowerExpr(f, st.Cond)
			if err != nil {
				return err
			}
			if condOp.scalar {
				if condOp.val != 0 {
					if err := ctx.lowerStmts(f, st.Body); err != nil {
						return err
					}
				}
				continue
			}
			ct := condOp.tile
			if f.cond != nil {
				combined, err := ctx.allocTile()
				if err != nil {
					return err
				}
				ctx.emit(Op{Instr: &dx100.Instr{Op: dx100.ALUV, DType: dx100.U64, ALU: dx100.OpAnd,
					TD: combined, TS1: *f.cond, TS2: ct, TC: dx100.NoTile}})
				ct = combined
			}
			inner := *f
			inner.cond = &ct
			if err := ctx.lowerStmts(&inner, st.Body); err != nil {
				return err
			}
		case Inner:
			if err := ctx.lowerInner(f, st); err != nil {
				return err
			}
		default:
			return fmt.Errorf("loopir: unknown stmt %T", s)
		}
	}
	return nil
}

func (ctx *lowerCtx) lowerStore(f *frame, st Store) error {
	info, ok := ctx.c.K.Arrays[st.Array]
	if !ok {
		return fmt.Errorf("loopir: unknown array %q", st.Array)
	}
	base := ctx.c.B.Base[st.Array]
	valOp, err := ctx.lowerExpr(f, st.Val)
	if err != nil {
		return err
	}
	valTile, err := ctx.materialize(f, valOp)
	if err != nil {
		return err
	}
	if f.outer {
		if a, b, okA := ctx.affine(st.Idx, f.varName); okA {
			r1, err := ctx.allocReg()
			if err != nil {
				return err
			}
			r2, err := ctx.allocReg()
			if err != nil {
				return err
			}
			r3, err := ctx.allocReg()
			if err != nil {
				return err
			}
			ctx.emit(Op{
				Regs: []RegSet{{r1, uint64(a*f.lo + b)}, {r2, uint64(f.hi - f.lo)}, {r3, uint64(a)}},
				Instr: &dx100.Instr{Op: dx100.SST, DType: info.DType, Base: base,
					TS1: valTile, RS1: r1, RS2: r2, RS3: r3, TC: condOf(f)},
			})
			return nil
		}
	}
	idxOp, err := ctx.lowerExpr(f, st.Idx)
	if err != nil {
		return err
	}
	if idxOp.scalar {
		return fmt.Errorf("loopir: scalar store index is unsupported")
	}
	ctx.emit(Op{Instr: &dx100.Instr{Op: dx100.IST, DType: info.DType, Base: base,
		TS1: idxOp.tile, TS2: valTile, TC: condOf(f)}})
	return nil
}

func (ctx *lowerCtx) lowerUpdate(f *frame, st Update) error {
	info, ok := ctx.c.K.Arrays[st.Array]
	if !ok {
		return fmt.Errorf("loopir: unknown array %q", st.Array)
	}
	base := ctx.c.B.Base[st.Array]
	valOp, err := ctx.lowerExpr(f, st.Val)
	if err != nil {
		return err
	}
	valTile, err := ctx.materialize(f, valOp)
	if err != nil {
		return err
	}
	idxOp, err := ctx.lowerExpr(f, st.Idx)
	if err != nil {
		return err
	}
	if idxOp.scalar {
		return fmt.Errorf("loopir: scalar RMW index is unsupported")
	}
	ctx.emit(Op{Instr: &dx100.Instr{Op: dx100.IRMW, DType: info.DType, ALU: st.Op, Base: base,
		TS1: idxOp.tile, TS2: valTile, TC: condOf(f)}})
	return nil
}

// lowerInner fuses a range loop with RNG and lowers its body in the
// fused frame (Figure 5).
func (ctx *lowerCtx) lowerInner(f *frame, st Inner) error {
	loOp, err := ctx.lowerExpr(f, st.Lo)
	if err != nil {
		return err
	}
	hiOp, err := ctx.lowerExpr(f, st.Hi)
	if err != nil {
		return err
	}
	if loOp.scalar || hiOp.scalar {
		return fmt.Errorf("loopir: inner loop with scalar bounds is not a range loop; unroll it instead")
	}
	posT, err := ctx.allocTile()
	if err != nil {
		return err
	}
	jT, err := ctx.allocTile()
	if err != nil {
		return err
	}
	reg, err := ctx.allocReg()
	if err != nil {
		return err
	}
	ctx.emit(Op{
		Regs: []RegSet{{reg, 1}},
		Instr: &dx100.Instr{Op: dx100.RNG, TD: posT, TD2: jT,
			TS1: loOp.tile, TS2: hiOp.tile, RS1: reg, TC: condOf(f)},
	})
	fused := &frame{parent: f, varName: st.Var, posTile: posT, jTile: jT}
	return ctx.lowerStmts(fused, st.Body)
}
