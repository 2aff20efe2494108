package dx100

import (
	"dx100/internal/cache"
	"dx100/internal/dram"
	"dx100/internal/memspace"
	"dx100/internal/sim"
)

// initStream precomputes the line schedule of a streaming access: the
// distinct cache lines the loop touches and, per line, the last
// element it covers (for in-order finish-bit progress).
func (a *Accel) initStream(fl *inflight) {
	ins := fl.ins
	start, count, stride := int64(fl.regs[0]), int(fl.regs[1]), int64(fl.regs[2])
	if stride == 0 {
		stride = 1
	}
	esz := int64(ins.DType.Size())
	fl.n = count
	var lastLine memspace.PAddr
	for i := 0; i < count; i++ {
		va := ins.Base + memspace.VAddr((start+int64(i)*stride)*esz)
		pa, hit := a.tlb.Translate(va)
		if !hit {
			fl.startAt += a.cfg.TLBMissLat
		}
		la := memspace.LineAddr(pa)
		if len(fl.linePA) == 0 || la != lastLine {
			fl.linePA = append(fl.linePA, la)
			fl.lineElemEnd = append(fl.lineElemEnd, i+1)
			lastLine = la
		} else {
			fl.lineElemEnd[len(fl.lineElemEnd)-1] = i + 1
		}
	}
	fl.lineDone = make([]bool, len(fl.linePA))
}

// stepStream issues up to StreamRate line requests per cycle through
// the Cache Interface (streaming accesses have high locality, §3.6)
// and advances the in-order progress as responses return.
func (a *Accel) stepStream(fl *inflight, now sim.Cycle) {
	if fl.linesIssued == len(fl.linePA) && fl.linesDone == len(fl.linePA) {
		fl.progress = fl.n
		a.retire(uStream, fl)
		return
	}
	kind := cache.Load
	if fl.ins.Op == SST {
		kind = cache.Store
	}
	limit := a.srcLimit(fl)
	for issued := 0; issued < a.cfg.StreamRate && fl.linesIssued < len(fl.linePA); issued++ {
		if fl.outstanding >= a.cfg.ReqTable {
			break
		}
		k := fl.linesIssued
		// A store line can only go out once its source elements exist.
		if fl.ins.Op == SST && fl.lineElemEnd[k] > limit {
			break
		}
		idx := k
		if !a.llc.Access(now, fl.linePA[k], kind, func(n sim.Cycle) {
			fl.lineDone[idx] = true
			fl.linesDone++
			fl.outstanding--
			for fl.linePrefix < len(fl.lineDone) && fl.lineDone[fl.linePrefix] {
				fl.progress = fl.lineElemEnd[fl.linePrefix]
				fl.linePrefix++
			}
		}) {
			break
		}
		fl.outstanding++
		fl.linesIssued++
		a.cStreamLn.Inc()
	}
	if fl.linesIssued == len(fl.linePA) && fl.linesDone == len(fl.linePA) {
		fl.progress = fl.n
		a.retire(uStream, fl)
	}
}

// stepIndirectDrain advances the request and response stages of one
// ILD/IST/IRMW (§3.2): the Row Table drain through the Request
// Generator, interleaved across channels and bank groups, plus the
// write-back retries for stores and RMWs. The fill stage runs
// separately (stepIndirectQueue) so it can overlap the drain of the
// previous instruction.
func (a *Accel) stepIndirectDrain(fl *inflight, now sim.Cycle) {
	// The request stage engages once the fill is complete or the Row
	// Table holds enough columns to preserve the reordering window.
	threshold := int(a.cfg.DrainFrac * float64(a.cfg.Machine.TileElems))
	if fl.fill >= fl.n || fl.rt.Pending() >= threshold || fl.draining {
		fl.draining = true
		a.indirectRequest(fl, now)
	}
	a.flushWrites(fl)
}

// indirectDone reports whether the instruction's stages all drained.
func (a *Accel) indirectDone(fl *inflight) bool {
	return fl.fill >= fl.n && fl.responded == fl.inserted && fl.rt.Outstanding() == 0 &&
		fl.holdHead == len(fl.holding) && fl.wqHead == len(fl.writeQueue) && fl.writesPend == 0
}

// indirectFill runs the fill stage: up to FillRate indices per cycle,
// bounded by chained producers.
func (a *Accel) indirectFill(fl *inflight) {
	ins := fl.ins
	esz := int64(ins.DType.Size())
	idxTile := a.m.Tile(ins.TS1)
	limit := a.srcLimit(fl)
	for budget := a.cfg.FillRate; budget > 0 && fl.fill < limit; budget-- {
		i := fl.fill
		if ins.TC != NoTile && a.m.Tile(ins.TC).Raw(i) == 0 {
			fl.fill++
			continue
		}
		va := ins.Base + memspace.VAddr(int64(idxTile.Raw(i))*esz)
		pa, hit := a.tlb.Translate(va)
		if !hit {
			fl.stallUntil = a.eng.Now() + a.cfg.TLBMissLat
			return
		}
		coord := a.mapper.Map(pa)
		wordOff := int(uint64(pa) % memspace.LineSize / uint64(esz))
		la := memspace.LineAddr(pa)
		snoop := func() bool {
			h := a.snoop != nil && a.snoop.Present(la)
			a.cSnoops.Inc()
			if h {
				a.cSnoopHits.Inc()
			}
			return h
		}
		if !fl.rt.Insert(i, coord, wordOff, snoop) {
			// Table full: drain until entries free up.
			fl.draining = true
			return
		}
		fl.fill++
		fl.inserted++
	}
}

// indirectRequest runs the request stage: up to ReqRate columns per
// cycle, routed to the LLC when the H bit is set and directly into the
// DRAM controllers otherwise.
func (a *Accel) indirectRequest(fl *inflight, now sim.Cycle) {
	for budget := a.cfg.ReqRate; budget > 0; budget-- {
		var req ColumnReq
		if fl.holdHead < len(fl.holding) {
			req = fl.holding[fl.holdHead]
			if !a.issueColumn(fl, req, now) {
				return
			}
			fl.holdHead++
			if fl.holdHead == len(fl.holding) {
				fl.holding = fl.holding[:0]
				fl.holdHead = 0
			}
			continue
		}
		r, ok := fl.rt.NextRequest()
		if !ok {
			return
		}
		req = r
		if !a.issueColumn(fl, req, now) {
			fl.holding = append(fl.holding, req)
			return
		}
	}
}

// issueColumn sends one column request; it reports false when the
// target (channel buffer or LLC port) cannot accept it this cycle.
func (a *Accel) issueColumn(fl *inflight, req ColumnReq, now sim.Cycle) bool {
	pa := a.mapper.Unmap(fl.rt.Coord(req))
	if req.Hit || a.cfg.ForceLLCRoute {
		// Cache Interface: the line lives in the hierarchy; loads and
		// stores both resolve there, keeping coherence (§3.6).
		kind := cache.Load
		if fl.ins.Op != ILD {
			kind = cache.Store
		}
		if !a.llc.Access(now, pa, kind, func(n sim.Cycle) { a.respond(fl, req) }) {
			return false
		}
		a.cReqLLC.Inc()
		return true
	}
	// DRAM Interface: read the line directly from memory. A full
	// channel buffer is the common refusal while DX100 keeps them
	// topped up; check it before building the request and its closure.
	if !a.mem.CanAccept(pa) {
		return false
	}
	r := &dram.Request{Addr: pa, Kind: dram.Read, OnDone: func(n sim.Cycle) {
		a.respond(fl, req)
		if fl.ins.Op == IST || fl.ins.Op == IRMW {
			// Word Modifier merges the new words and writes the line
			// back (§3.2, operation stage 3).
			fl.writesPend++
			w := &dram.Request{Addr: pa, Kind: dram.Write, OnDone: func(sim.Cycle) { fl.writesPend-- }}
			if !a.mem.Submit(w) {
				fl.writeQueue = append(fl.writeQueue, w)
			}
			a.cWritebacks.Inc()
		}
	}}
	if !a.mem.Submit(r) {
		return false
	}
	a.cReqDirect.Inc()
	return true
}

// respond consumes a column response: the Word Table walk yields the
// served tile elements.
func (a *Accel) respond(fl *inflight, req ColumnReq) {
	refs := fl.rt.Respond(req)
	fl.responded += len(refs)
	a.cWords.Add(float64(len(refs)))
}

// flushWrites retries queued write-backs against freed channel-buffer
// slots.
func (a *Accel) flushWrites(fl *inflight) {
	for fl.wqHead < len(fl.writeQueue) {
		if !a.mem.Submit(fl.writeQueue[fl.wqHead]) {
			return
		}
		fl.writeQueue[fl.wqHead] = nil
		fl.wqHead++
	}
	fl.writeQueue = fl.writeQueue[:0]
	fl.wqHead = 0
}
