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

// streamDone reports whether every line of a stream instruction has
// returned, so it retires.
func streamDone(fl *inflight) bool { return fl.linesDone == len(fl.linePA) }

// streamLimit bounds the elements whose lines may issue: a streaming
// store's line goes out only once its source elements exist, while a
// load waits on no producer.
func (a *Accel) streamLimit(fl *inflight) int {
	if fl.ins.Op != SST {
		return fl.n
	}
	return a.srcLimit(fl)
}

// lineReady reports whether the stream unit's next line may issue: one
// is left, the request table has a free entry, and the line's last
// element lies within limit (streamLimit).
func (a *Accel) lineReady(fl *inflight, limit int) bool {
	k := fl.linesIssued
	return k < len(fl.linePA) && fl.outstanding < a.cfg.ReqTable && fl.lineElemEnd[k] <= limit
}

// stepStream issues up to StreamRate line requests per cycle through
// the Cache Interface (streaming accesses have high locality, §3.6)
// and advances the in-order progress as responses return. Responses
// arrive as events, never during the tick that issues, so the
// instruction retires on the first tick after its last one.
func (a *Accel) stepStream(fl *inflight, now sim.Cycle) {
	if streamDone(fl) {
		fl.progress = fl.n
		a.retire(uStream, fl)
		return
	}
	kind := cache.Load
	if fl.ins.Op == SST {
		kind = cache.Store
	}
	limit := a.streamLimit(fl)
	for issued := 0; issued < a.cfg.StreamRate && a.lineReady(fl, limit); issued++ {
		k := fl.linesIssued
		if !a.llc.Access(now, fl.linePA[k], kind, func(n sim.Cycle) {
			fl.lineDone[k] = true
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
}

// stepIndirectDrain advances the request and response stages of one
// ILD/IST/IRMW (§3.2): the Row Table drain through the Request
// Generator, interleaved across channels and bank groups, plus the
// write-back retries for stores and RMWs. The fill stage runs
// separately (stepIndirectQueue) so it can overlap the drain of the
// previous instruction.
func (a *Accel) stepIndirectDrain(fl *inflight, now sim.Cycle) {
	if a.drainEngaged(fl) {
		fl.draining = true
		a.indirectRequest(fl, now)
	}
	a.flushWrites(fl)
}

// drainEngaged reports whether the request stage runs: it engages once
// the fill is complete or the Row Table holds enough columns to
// preserve the reordering window, and stays engaged.
func (a *Accel) drainEngaged(fl *inflight) bool {
	return fl.draining || fl.fill >= fl.n || fl.rt.Pending() >= int(a.cfg.DrainFrac*float64(a.cfg.Machine.TileElems))
}

// requestReady reports whether the request stage has a column to
// issue: the held one unless its channel's buffer is full
// (awaitsChannel), else any pending column of the Row Table.
func (a *Accel) requestReady(fl *inflight) bool {
	if fl.holding {
		return !a.awaitsChannel(fl.held)
	}
	return fl.rt.Pending() > 0
}

// indirectDone reports whether the instruction's stages all drained.
func (a *Accel) indirectDone(fl *inflight) bool {
	return fl.fill >= fl.n && fl.responded == fl.inserted && fl.rt.Outstanding() == 0 &&
		!fl.holding && fl.wqHead == len(fl.writeQueue) && fl.writesPend == 0
}

// fillReady reports whether the fill stage has an index left that its
// chained producers released (limit, from srcLimit).
func fillReady(fl *inflight, limit int) bool { return fl.fill < limit }

// indirectFill runs the fill stage: up to FillRate indices per cycle,
// bounded by chained producers.
func (a *Accel) indirectFill(fl *inflight) {
	ins := fl.ins
	esz := int64(ins.DType.Size())
	idxTile := a.m.Tile(ins.TS1)
	limit := a.srcLimit(fl)
	for budget := a.cfg.FillRate; budget > 0 && fillReady(fl, limit); budget-- {
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
		la := memspace.LineAddr(pa)
		snoop := func() bool {
			h := a.snoop != nil && a.snoop.Present(la)
			a.cSnoops.Inc()
			if h {
				a.cSnoopHits.Inc()
			}
			return h
		}
		if !fl.rt.Insert(a.mapper.Map(pa), la, snoop) {
			// Table full: drain until a response frees an entry.
			fl.draining = true
			fl.blocked, fl.blockedMisses = true, a.tlb.Misses
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
	for budget := a.cfg.ReqRate; budget > 0 && a.requestReady(fl); budget-- {
		if !fl.holding {
			req, ok := fl.rt.NextRequest()
			if !ok {
				return
			}
			fl.held = req
		}
		fl.holding = !a.issueColumn(fl, now)
		if fl.holding {
			return
		}
	}
}

// viaLLC reports whether a column goes through the Cache Interface: its
// line is cached (the H bit), or the LLC-inject ablation routes every
// column there.
func (a *Accel) viaLLC(req ColumnReq) bool { return req.Hit || a.cfg.ForceLLCRoute }

// awaitsChannel reports whether issueColumn refuses req without side
// effects: the column is DRAM-routed and its channel's request buffer
// is full. LLC ports recover by the passage of time alone, so an
// LLC-routed column never waits here.
func (a *Accel) awaitsChannel(req ColumnReq) bool {
	return !a.viaLLC(req) && !a.mem.CanAccept(req.Line)
}

// issueColumn sends the held column's request; it reports false when
// the target (channel buffer or LLC port) cannot accept it this cycle.
func (a *Accel) issueColumn(fl *inflight, now sim.Cycle) bool {
	req := fl.held
	// A full channel buffer is the common refusal while DX100 keeps them
	// topped up; check it before building the request and its closure.
	if a.awaitsChannel(req) {
		return false
	}
	if a.viaLLC(req) {
		// Cache Interface: the line lives in the hierarchy; loads and
		// stores both resolve there, keeping coherence (§3.6).
		kind := cache.Load
		if fl.ins.Op != ILD {
			kind = cache.Store
		}
		if !a.llc.Access(now, req.Line, kind, func(n sim.Cycle) { a.respond(fl, req) }) {
			return false
		}
		a.cReqLLC.Inc()
		return true
	}
	// DRAM Interface: read the line directly from memory.
	r := &dram.Request{Addr: req.Line, Kind: dram.Read, OnDone: func(n sim.Cycle) {
		a.respond(fl, req)
		if fl.ins.Op == IST || fl.ins.Op == IRMW {
			// Word Modifier merges the new words and writes the line
			// back (§3.2, operation stage 3).
			fl.writesPend++
			w := &dram.Request{Addr: req.Line, Kind: dram.Write, OnDone: func(sim.Cycle) { fl.writesPend-- }}
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

// respond consumes a column response, which serves the column's tile
// elements.
func (a *Accel) respond(fl *inflight, req ColumnReq) {
	fl.rt.Respond(req)
	fl.responded += req.Words
	a.cWords.Add(float64(req.Words))
	fl.blocked = false // the freed entry may admit the blocked insert
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
