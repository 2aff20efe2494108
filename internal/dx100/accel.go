package dx100

import (
	"fmt"

	"dx100/internal/cache"
	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/obs"
	"dx100/internal/sim"
)

// Snooper is the coherency view the accelerator needs: the directory
// snoop that fills the H bit during the fill stage (§3.6).
type Snooper interface {
	Present(memspace.PAddr) bool
}

// unit identifies one functional unit (§3).
type unit int

const (
	uStream unit = iota
	uIndirect
	uALU
	uRange
	numUnits
)

func unitOf(op Opcode) unit {
	switch op {
	case SLD, SST:
		return uStream
	case ILD, IST, IRMW:
		return uIndirect
	case ALUV, ALUS:
		return uALU
	default:
		return uRange
	}
}

// inflight is one instruction moving through the accelerator.
type inflight struct {
	ins      Instr
	regs     [3]uint64 // register operands snapshotted at send time
	n        int       // element count
	progress int       // elements completed, monotone for ordered units
	ordered  bool      // progress is in element order (chaining legal)
	startAt  sim.Cycle

	// Stream unit state.
	linePA      []memspace.PAddr
	lineElemEnd []int
	lineDone    []bool
	linesIssued int
	linesDone   int
	linePrefix  int
	outstanding int

	// Indirect unit state.
	rt        *RowTable
	fill      int
	inserted  int
	responded int
	draining  bool
	// holding and writeQueue drain head-first; the head indices avoid
	// reslicing so the backing arrays are reused once empty.
	holding    []ColumnReq
	holdHead   int
	writeQueue []*dram.Request
	wqHead     int
	writesPend int
	stallUntil sim.Cycle
	// blocked is set when an insert found its Row Table slice full,
	// and blockedMisses holds the TLB miss count at that moment. Only a
	// response frees a slice entry (respond clears the flag), so until
	// then every retry repeats the same failing insert: one TLB hit and
	// one stall per cycle, which SkipCycles can count in bulk. A TLB
	// miss may evict the retried element's page, so the block holds
	// only while the miss count is unchanged.
	blocked       bool
	blockedMisses int

	snapIns   int // rt counter snapshots at dispatch
	snapCoal  int
	snapCols  int
	snapStall int
}

// Accel is the DX100 timing model: a memory-mapped accelerator shared
// by the cores, connected to the LLC (Cache Interface) and directly to
// the DRAM controllers (DRAM Interface).
type Accel struct {
	cfg    Config
	eng    *sim.Engine
	stats  *sim.Stats
	prefix string

	m      *Machine
	space  *memspace.Space
	mem    *dram.System
	mapper *dram.Mapper
	llc    cache.Level
	snoop  Snooper
	tlb    *TLB
	// Two Row Tables ping-pong so the fill stage of one indirect
	// instruction overlaps the request/response stages of the
	// previous one (§3.5: fine-grained coordination between stages).
	rts [2]*RowTable

	// queue dispatches head-first; qHead avoids reslicing.
	queue []*inflight
	qHead int
	units [numUnits]*inflight
	indQ  []*inflight // indirect unit: up to two staged instructions
	refs  []WordRef   // Row Table response buffer, reused by respond

	cInstrs     *sim.Counter
	cSnoops     *sim.Counter
	cSnoopHits  *sim.Counter
	cWords      *sim.Counter
	cStreamLn   *sim.Counter
	cReqLLC     *sim.Counter
	cReqDirect  *sim.Counter
	cWritebacks *sim.Counter

	// trace, when non-nil, receives request-buffer enqueue and retire
	// drain events. Both sites are nil-guarded, off the per-cycle path.
	trace *obs.Sink

	tileRefs   []int // outstanding references per tile: ready bit == 0 refs
	tileUse    []int // in-flight (dispatched) uses, for the scoreboard
	tileWriter []*inflight

	spdRegion memspace.Region
	spdPABase memspace.PAddr
	spdCycle  sim.Cycle
	spdUsed   int

	// Multi-instance coarse-grained region coherence (§6.6).
	dir      *RegionDirectory
	instance int

	retired int
}

// RegionDirectory implements the coarse-grained region-based coherence
// protocol of §6.6 (core multiplexing): one writer per indirect array
// region across DX100 instances, with a transfer cost when ownership
// moves.
type RegionDirectory struct {
	owner       map[memspace.VAddr]int
	TransferLat sim.Cycle
	Transfers   int
}

// NewRegionDirectory returns an empty directory.
func NewRegionDirectory() *RegionDirectory {
	return &RegionDirectory{owner: make(map[memspace.VAddr]int), TransferLat: 100}
}

// Acquire claims the region containing base for instance, returning
// the added latency (zero when already owned).
func (d *RegionDirectory) Acquire(base memspace.VAddr, instance int) sim.Cycle {
	key := base >> memspace.HugePageBits
	cur, ok := d.owner[memspace.VAddr(key)]
	if ok && cur == instance {
		return 0
	}
	d.owner[memspace.VAddr(key)] = instance
	if !ok {
		return 0
	}
	d.Transfers++
	return d.TransferLat
}

// New builds the accelerator: it allocates the scratchpad's
// memory-mapped region in the address space, builds the functional
// machine, and registers the timing model on the engine.
func New(eng *sim.Engine, cfg Config, space *memspace.Space, mem *dram.System, llc cache.Level, snoop Snooper, stats *sim.Stats, prefix string) *Accel {
	a := &Accel{
		cfg:    cfg,
		eng:    eng,
		stats:  stats,
		prefix: prefix,
		m:      NewMachine(space, cfg.Machine),
		space:  space,
		mem:    mem,
		mapper: mem.Mapper(),
		llc:    llc,
		snoop:  snoop,
		tlb:    NewTLB(space, cfg.TLBEntries),
	}
	a.rts[0] = NewRowTable(mem.Params(), cfg.RowTable, cfg.Machine.TileElems)
	a.rts[1] = NewRowTable(mem.Params(), cfg.RowTable, cfg.Machine.TileElems)
	nt := cfg.Machine.Tiles
	a.tileRefs = make([]int, nt)
	a.tileUse = make([]int, nt)
	a.tileWriter = make([]*inflight, nt)
	spdBytes := uint64(cfg.Machine.Tiles) * uint64(cfg.Machine.TileElems) * 8
	a.spdRegion = space.Alloc(prefix+"spd", spdBytes)
	a.spdPABase = space.Translate(a.spdRegion.Base)
	a.cInstrs = stats.Counter(prefix + "instructions")
	a.cSnoops = stats.Counter(prefix + "snoops")
	a.cSnoopHits = stats.Counter(prefix + "snoop_hits")
	a.cWords = stats.Counter(prefix + "words")
	a.cStreamLn = stats.Counter(prefix + "stream.lines")
	a.cReqLLC = stats.Counter(prefix + "req.llc")
	a.cReqDirect = stats.Counter(prefix + "req.direct")
	a.cWritebacks = stats.Counter(prefix + "writebacks")
	eng.Register(a)
	return a
}

// Machine exposes the functional state (tiles, registers) for host
// setup and result inspection.
func (a *Accel) Machine() *Machine { return a.m }

// AttachTrace directs request-buffer enqueue/drain events into sink
// (nil detaches).
func (a *Accel) AttachTrace(sink *obs.Sink) { a.trace = sink }

// TLB exposes the translation buffer for PTE preloading (§4.1).
func (a *Accel) TLB() *TLB { return a.tlb }

// AttachDirectory joins the accelerator to a multi-instance coherence
// directory as the given instance id (§6.6).
func (a *Accel) AttachDirectory(d *RegionDirectory, instance int) {
	a.dir = d
	a.instance = instance
}

// TileElemVA returns the memory-mapped virtual address of tile t,
// element i — the address cores use to read gathered data (Figure 6).
func (a *Accel) TileElemVA(t uint8, i int) memspace.VAddr {
	return a.spdRegion.Base + memspace.VAddr((int(t)*a.cfg.Machine.TileElems+i)*8)
}

// SPDRange returns the physical address range of the scratchpad
// region, for routing core accesses.
func (a *Accel) SPDRange() (lo, hi memspace.PAddr) {
	return a.spdPABase, a.spdPABase + memspace.PAddr(a.spdRegion.Size)
}

// QueueLen returns the number of received, undispatched instructions —
// the credit signal host drivers use for flow control.
func (a *Accel) QueueLen() int { return len(a.queue) - a.qHead }

// TilesBusy counts the tiles currently referenced by queued or
// in-flight instructions (ready bit low) — the utilization half of the
// simprof tile probes.
func (a *Accel) TilesBusy() int {
	n := 0
	for _, r := range a.tileRefs {
		if r > 0 {
			n++
		}
	}
	return n
}

// TileFill sums the fill fraction (elements held / TileElems) of the
// busy tiles; divided by TilesBusy it is the mean occupancy of the
// tiles actually in use. Skewed graphs underfill tiles because
// chunking is sized by the worst-case hub degree — this probe makes
// that visible on the timeline (the skew-collapse audit in ROADMAP).
func (a *Accel) TileFill() float64 {
	sum := 0.0
	for t, r := range a.tileRefs {
		if r > 0 {
			sum += float64(a.m.Tile(uint8(t)).Size()) / float64(a.cfg.Machine.TileElems)
		}
	}
	return sum
}

// RetiredInstrs returns the count of fully completed instructions.
func (a *Accel) RetiredInstrs() int { return a.retired }

// Idle reports whether the accelerator has no queued or executing
// instructions.
func (a *Accel) Idle() bool {
	if a.QueueLen() > 0 || len(a.indQ) > 0 {
		return false
	}
	for _, u := range a.units {
		if u != nil {
			return false
		}
	}
	return true
}

// freeRowTable returns an unowned Row Table, or nil.
func (a *Accel) freeRowTable() *RowTable {
	for _, rt := range a.rts {
		owned := false
		for _, fl := range a.indQ {
			if fl.rt == rt {
				owned = true
				break
			}
		}
		if !owned {
			return rt
		}
	}
	return nil
}

// operandTiles lists the tile operands of an instruction into
// fixed-size arrays (destinations, then sources, then the condition
// tile) so callers on per-cycle paths do not allocate. dests[:nd] and
// srcs[:ns] are the valid prefixes.
func operandTiles(in Instr) (dests [2]uint8, nd int, srcs [3]uint8, ns int) {
	switch in.Op {
	case SLD:
		dests[0], nd = in.TD, 1
	case SST:
		srcs[0], ns = in.TS1, 1
	case ILD:
		dests[0], nd = in.TD, 1
		srcs[0], ns = in.TS1, 1
	case IST, IRMW:
		srcs[0], srcs[1], ns = in.TS1, in.TS2, 2
	case ALUV:
		dests[0], nd = in.TD, 1
		srcs[0], srcs[1], ns = in.TS1, in.TS2, 2
	case ALUS:
		dests[0], nd = in.TD, 1
		srcs[0], ns = in.TS1, 1
	case RNG:
		dests[0], dests[1], nd = in.TD, in.TD2, 2
		srcs[0], srcs[1], ns = in.TS1, in.TS2, 2
	}
	if in.TC != NoTile {
		srcs[ns] = in.TC
		ns++
	}
	return dests, nd, srcs, ns
}

// Send enqueues an instruction, as transmitted by a core's three
// memory-mapped stores. Ready bits of all operand tiles drop
// immediately (§3.5).
func (a *Accel) Send(ins Instr) error {
	if err := ins.Validate(); err != nil {
		return err
	}
	fl := &inflight{ins: ins, regs: [3]uint64{a.m.Reg(ins.RS1), a.m.Reg(ins.RS2), a.m.Reg(ins.RS3)}}
	dests, nd, srcs, ns := operandTiles(ins)
	for _, t := range dests[:nd] {
		a.tileRefs[t]++
	}
	for _, t := range srcs[:ns] {
		a.tileRefs[t]++
	}
	a.queue = append(a.queue, fl)
	a.cInstrs.Inc()
	if a.trace != nil {
		a.trace.Emit(obs.Event{
			Cycle: uint64(a.eng.Now()), Kind: obs.EvDXEnqueue, Src: a.prefix,
			Args: [6]int64{int64(ins.Op), int64(a.QueueLen())},
		})
	}
	return nil
}

// SetReg writes a scalar register (memory-mapped register-file store,
// §4.1).
func (a *Accel) SetReg(r uint8, v uint64) { a.m.SetReg(r, v) }

// scoreboardOK checks the dispatch rules (§3.5): destination tiles
// must be completely free (no WAW/WAR), and sources written by an
// in-flight producer are only legal when the producer fills in order
// (fine-grained chaining via finish bits). Condition tiles and RNG
// sources require completed producers.
func (a *Accel) scoreboardOK(in Instr) bool {
	dests, nd, srcs, ns := operandTiles(in)
	for _, t := range dests[:nd] {
		if a.tileUse[t] != 0 {
			return false
		}
	}
	for _, t := range srcs[:ns] {
		w := a.tileWriter[t]
		if w == nil {
			continue
		}
		if !w.ordered || in.Op == RNG || t == in.TC {
			return false
		}
	}
	return true
}

// Tick implements sim.Ticker.
func (a *Accel) Tick(now sim.Cycle) bool {
	a.tryDispatch(now)
	for u := unit(0); u < numUnits; u++ {
		if u == uIndirect {
			a.stepIndirectQueue(now)
			continue
		}
		if fl := a.units[u]; fl != nil {
			a.step(u, fl, now)
		}
	}
	return !a.Idle()
}

// stallWake returns the cycle a stalled instruction resumes at, when
// that lies in the future (dispatch latency, directory transfer, TLB
// miss). Until then its unit does nothing.
func stallWake(fl *inflight, now sim.Cycle) (sim.Cycle, bool) {
	w := fl.startAt
	if fl.stallUntil > w {
		w = fl.stallUntil
	}
	if w > now {
		return w, true
	}
	return 0, false
}

// NextWake implements sim.WakeHinter: the minimum over the wake bounds
// of the dispatch stage and every active unit. Hints of now+1 mark
// states where the next tick could mutate something — issue a request
// (LLC ports recover by pure passage of time), advance a compute lane,
// insert into a Row Table, or retire. States waiting purely on
// responses return NeverWake: the completions arrive as scheduled
// events, and back-pressure from the DRAM request buffers clears only
// when the DRAM system acts, which its own hint bounds. A fill blocked
// on a full Row Table slice waits for a response too; SkipCycles
// counts the stalls its elided retries would have counted.
func (a *Accel) NextWake(now sim.Cycle) (sim.Cycle, bool) {
	if a.Idle() {
		return sim.NeverWake, true
	}
	if a.canDispatchHead() {
		return now + 1, true
	}
	wake := sim.NeverWake
	min := func(w sim.Cycle) bool {
		if w <= now+1 {
			return true
		}
		if w < wake {
			wake = w
		}
		return false
	}
	if fl := a.units[uStream]; fl != nil {
		if min(a.streamWake(fl, now)) {
			return now + 1, true
		}
	}
	if fl := a.units[uALU]; fl != nil {
		if min(a.computeWake(fl, now)) {
			return now + 1, true
		}
	}
	if fl := a.units[uRange]; fl != nil {
		if min(a.computeWake(fl, now)) {
			return now + 1, true
		}
	}
	target := a.fillTarget(now + 1)
	for i, fl := range a.indQ {
		if min(a.indirectWake(fl, now, i == 0, fl == target)) {
			return now + 1, true
		}
	}
	return wake, true
}

// SkipCycles implements sim.CycleSkipper. The one per-cycle side
// effect a sleeping accelerator has is a blocked fill's retry, which
// counts a TLB hit and a Row Table stall on every elided cycle.
func (a *Accel) SkipCycles(from, to sim.Cycle) {
	fl := a.fillTarget(from + 1)
	if fl == nil || !a.fillBlocked(fl) {
		return
	}
	n := int(to - from - 1)
	fl.rt.Stalls += n
	a.tlb.Hits += n
}

// streamWake bounds the stream unit's next action.
func (a *Accel) streamWake(fl *inflight, now sim.Cycle) sim.Cycle {
	if w, stalled := stallWake(fl, now); stalled {
		return w
	}
	if fl.linesIssued == len(fl.linePA) {
		if fl.linesDone == len(fl.linePA) {
			return now + 1 // retires on the next tick
		}
		return sim.NeverWake // responses arrive as events
	}
	if fl.outstanding >= a.cfg.ReqTable {
		return sim.NeverWake // a response event frees a request slot
	}
	if fl.ins.Op == SST && fl.lineElemEnd[fl.linesIssued] > a.srcLimit(fl) {
		return sim.NeverWake // chained producer's own hint covers it
	}
	return now + 1 // will attempt an LLC access
}

// computeWake bounds the ALU / Range Fuser's next action.
func (a *Accel) computeWake(fl *inflight, now sim.Cycle) sim.Cycle {
	if w, stalled := stallWake(fl, now); stalled {
		return w
	}
	if fl.progress < a.srcLimit(fl) || fl.progress >= fl.n {
		return now + 1
	}
	return sim.NeverWake // caught up with a chained producer
}

// indirectWake bounds one staged indirect instruction's next action.
// Its fill stage acts only while it holds the fill port (fills), its
// producers have released the next index, and it is not blocked on a
// full Row Table slice.
func (a *Accel) indirectWake(fl *inflight, now sim.Cycle, isHead, fills bool) sim.Cycle {
	if w, stalled := stallWake(fl, now); stalled {
		return w
	}
	if fills && fl.fill < a.srcLimit(fl) && !a.fillBlocked(fl) {
		return now + 1
	}
	if isHead {
		if a.indirectDone(fl) {
			return now + 1 // retires on the next tick
		}
		threshold := int(a.cfg.DrainFrac * float64(a.cfg.Machine.TileElems))
		engaged := fl.draining || fl.fill >= fl.n || fl.rt.Pending() >= threshold
		if engaged {
			if fl.holdHead < len(fl.holding) {
				if !a.awaitsChannel(fl.rt, fl.holding[fl.holdHead]) {
					return now + 1 // the head held column can be retried
				}
			} else if fl.rt.Pending() > 0 {
				return now + 1 // request stage has columns to issue
			}
		}
		// A held column refused by a full channel, like a queued
		// write-back, retries in vain against the DRAM request buffers:
		// the slot frees only when that channel issues a command, which
		// the DRAM hint bounds.
	}
	return sim.NeverWake
}

// awaitsChannel reports whether req is DRAM-routed and its channel's
// request buffer is full, so issueColumn would refuse it without side
// effects.
func (a *Accel) awaitsChannel(rt *RowTable, req ColumnReq) bool {
	return !req.Hit && !a.cfg.ForceLLCRoute && !a.mem.CanAccept(a.mapper.Unmap(rt.Coord(req)))
}

// fillTarget returns the instruction the shared fill ports serve at
// cycle at: the oldest staged indirect instruction that is past its
// stall and still has indices to fill.
func (a *Accel) fillTarget(at sim.Cycle) *inflight {
	for _, fl := range a.indQ {
		if at >= fl.startAt && at >= fl.stallUntil && fl.fill < fl.n {
			return fl
		}
	}
	return nil
}

// fillBlocked reports whether fl's next fill attempt repeats an insert
// that a full Row Table slice refused (see inflight.blocked).
func (a *Accel) fillBlocked(fl *inflight) bool {
	return fl.blocked && fl.blockedMisses == a.tlb.Misses
}

// stepIndirectQueue advances the staged indirect instructions: the
// shared fill ports serve the fill target, while the request generator
// and response path drain the oldest instruction's Row Table.
func (a *Accel) stepIndirectQueue(now sim.Cycle) {
	target := a.fillTarget(now)
	for _, fl := range a.indQ {
		if now < fl.startAt || now < fl.stallUntil {
			continue
		}
		if fl == target {
			a.indirectFill(fl)
		}
		if fl == a.indQ[0] {
			a.stepIndirectDrain(fl, now)
		}
	}
	// Retirement check for the head (drain may complete it).
	if len(a.indQ) > 0 {
		fl := a.indQ[0]
		if now >= fl.startAt && a.indirectDone(fl) {
			fl.progress = fl.n
			a.retire(uIndirect, fl)
		}
	}
}

func (a *Accel) tryDispatch(now sim.Cycle) {
	for a.canDispatchHead() {
		fl := a.queue[a.qHead]
		a.queue[a.qHead] = nil
		a.qHead++
		if a.qHead == len(a.queue) {
			a.queue = a.queue[:0]
			a.qHead = 0
		}
		a.dispatch(fl, now)
	}
}

// canDispatchHead reports whether the oldest queued instruction could
// dispatch this cycle: its unit is free (or an indirect slot and Row
// Table are available) and the tile scoreboard allows it. It is pure,
// so NextWake shares it with tryDispatch.
func (a *Accel) canDispatchHead() bool {
	if a.QueueLen() == 0 {
		return false
	}
	fl := a.queue[a.qHead]
	u := unitOf(fl.ins.Op)
	if u == uIndirect {
		if len(a.indQ) >= 2 || a.freeRowTable() == nil {
			return false
		}
	} else if a.units[u] != nil {
		return false // in-order dispatch: the head blocks
	}
	return a.scoreboardOK(fl.ins)
}

// dispatch executes the instruction functionally (§5: the timing model
// reuses the verified functional machine for all data movement) and
// initializes the unit's timing state.
func (a *Accel) dispatch(fl *inflight, now sim.Cycle) {
	ins := fl.ins
	// Restore the register operands captured at send time.
	a.m.SetReg(ins.RS1, fl.regs[0])
	a.m.SetReg(ins.RS2, fl.regs[1])
	a.m.SetReg(ins.RS3, fl.regs[2])
	if err := a.m.Exec(ins); err != nil {
		panic(fmt.Sprintf("dx100: functional execution of dispatched instruction failed: %v", err))
	}
	dests, nd, srcs, ns := operandTiles(ins)
	for _, t := range dests[:nd] {
		a.tileUse[t]++
		a.tileWriter[t] = fl
	}
	for _, t := range srcs[:ns] {
		a.tileUse[t]++
	}
	fl.startAt = now + a.cfg.DispatchLat
	if a.dir != nil {
		switch ins.Op {
		case ILD, IST, IRMW, SLD, SST:
			fl.startAt += a.dir.Acquire(ins.Base, a.instance)
		}
	}
	fl.ordered = ins.Op != ILD
	switch ins.Op {
	case SLD, SST:
		a.initStream(fl)
		a.units[uStream] = fl
	case ILD, IST, IRMW:
		fl.n = a.m.Tile(ins.TS1).Size()
		fl.rt = a.freeRowTable()
		if fl.rt.Outstanding() != 0 {
			// Retirement waits for every response, and Respond frees
			// what it drains, so a free table is already empty.
			panic("dx100: dispatching onto a Row Table with outstanding columns")
		}
		fl.snapIns, fl.snapCoal = fl.rt.Inserts, fl.rt.Coalesced
		fl.snapCols, fl.snapStall = fl.rt.ColsAlloc, fl.rt.Stalls
		a.indQ = append(a.indQ, fl)
	case ALUV, ALUS:
		fl.n = a.m.Tile(ins.TS1).Size()
		a.units[uALU] = fl
	case RNG:
		fl.n = a.m.Tile(ins.TD).Size() // fused output length, known post-exec
		a.units[uRange] = fl
	}
	a.stats.Inc(a.prefix + "dispatch." + ins.Op.String())
}

// retire releases the instruction's operands and frees its unit.
func (a *Accel) retire(u unit, fl *inflight) {
	if a.trace != nil {
		a.trace.Emit(obs.Event{
			Cycle: uint64(a.eng.Now()), Kind: obs.EvDXDrain, Src: a.prefix,
			Args: [6]int64{int64(fl.ins.Op), int64(a.QueueLen())},
		})
	}
	dests, nd, srcs, ns := operandTiles(fl.ins)
	for _, t := range dests[:nd] {
		a.tileUse[t]--
		a.tileRefs[t]--
		if a.tileWriter[t] == fl {
			a.tileWriter[t] = nil
		}
	}
	for _, t := range srcs[:ns] {
		a.tileUse[t]--
		a.tileRefs[t]--
	}
	if u == uIndirect {
		for i, q := range a.indQ {
			if q == fl {
				a.indQ = append(a.indQ[:i], a.indQ[i+1:]...)
				break
			}
		}
		a.stats.Add(a.prefix+"rt.coalesced", float64(fl.rt.Coalesced-fl.snapCoal))
		a.stats.Add(a.prefix+"rt.cols", float64(fl.rt.ColsAlloc-fl.snapCols))
		a.stats.Add(a.prefix+"rt.inserts", float64(fl.rt.Inserts-fl.snapIns))
		a.stats.Add(a.prefix+"rt.stalls", float64(fl.rt.Stalls-fl.snapStall))
	} else {
		a.units[u] = nil
	}
	a.retired++
	a.stats.Inc(a.prefix + "retire." + fl.ins.Op.String())
	a.stats.Set(a.prefix+"tlb.misses", float64(a.tlb.Misses))
}

// srcLimit bounds per-element consumption by the progress of in-flight
// producers of the instruction's source tiles.
func (a *Accel) srcLimit(fl *inflight) int {
	limit := fl.n
	_, _, srcs, ns := operandTiles(fl.ins)
	for _, t := range srcs[:ns] {
		if w := a.tileWriter[t]; w != nil && w != fl && w.progress < limit {
			limit = w.progress
		}
	}
	return limit
}

func (a *Accel) step(u unit, fl *inflight, now sim.Cycle) {
	if now < fl.startAt || now < fl.stallUntil {
		return
	}
	switch u {
	case uStream:
		a.stepStream(fl, now)
	case uALU:
		a.stepCompute(u, fl, a.cfg.ALULanes)
	case uRange:
		a.stepCompute(u, fl, a.cfg.RangeRate)
	}
}

// stepCompute advances an ALU or Range Fuser instruction by up to rate
// elements per cycle, bounded by chained producers.
func (a *Accel) stepCompute(u unit, fl *inflight, rate int) {
	limit := a.srcLimit(fl)
	fl.progress += rate
	if fl.progress > limit {
		fl.progress = limit
	}
	if fl.progress >= fl.n {
		fl.progress = fl.n
		a.retire(u, fl)
	}
}
