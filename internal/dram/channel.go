package dram

// bank is the state machine of a single DRAM bank. All times are in
// DRAM cycles; a command is legal once the current cycle reaches the
// corresponding next* field.
type bank struct {
	openRow   int // -1 when precharged
	nextAct   uint64
	nextRead  uint64
	nextWrite uint64
	nextPre   uint64
	// hits counts the queued requests that target openRow (0 while
	// precharged), so FR-FCFS's "would a PRE close a row with pending
	// hits?" check is O(1) instead of a queue scan.
	hits int
}

// channel owns one DDR4 channel: its banks, the shared-bus and
// bank-group timing trackers, and the FR-FCFS request buffer.
type channel struct {
	p     Params
	idx   int // channel number within the system
	banks []bank
	queue []*Request
	seq   uint64

	// hintMin caches earliestAction: the smallest DRAM cycle at which
	// this channel could issue any command or refresh, valid while no
	// state changes (every enqueue/issue/remove/refresh invalidates
	// it). Command legality is monotone in time over frozen state, so
	// the cached absolute threshold stays correct until invalidated.
	hintMin   uint64
	hintValid bool

	// CAS-to-CAS trackers: a new CAS must respect tCCD_L within its
	// bank group and tCCD_S across the channel.
	nextCASAny   uint64
	nextCASPerBG []uint64
	// ACT-to-ACT trackers (tRRD_S/L) and the four-activate window.
	nextACTAny   uint64
	nextACTPerBG []uint64
	actWindow    [4]uint64
	actWindowPos int
	actCount     int
	// Bus turnaround.
	nextReadOK  uint64
	nextWriteOK uint64
	// Refresh state: at nextRefresh all banks precharge and the
	// channel blocks for tRFC.
	nextRefresh uint64
}

func newChannel(p Params) *channel {
	ch := &channel{
		p:            p,
		banks:        make([]bank, p.BanksPerChannel()),
		nextCASPerBG: make([]uint64, p.Ranks*p.BankGroups),
		nextACTPerBG: make([]uint64, p.Ranks*p.BankGroups),
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	ch.nextRefresh = uint64(p.TREFI)
	return ch
}

// maybeRefresh fires an all-bank refresh when tREFI elapses: every
// open row closes and no command may issue for tRFC. It reports
// whether the channel is refreshing at dc.
func (ch *channel) maybeRefresh(dc uint64) bool {
	if ch.p.TREFI == 0 {
		return false
	}
	if dc >= ch.nextRefresh {
		ch.hintValid = false
		end := dc + uint64(ch.p.TRFC)
		for i := range ch.banks {
			b := &ch.banks[i]
			b.openRow = -1
			b.hits = 0
			b.nextAct = max64(b.nextAct, end)
		}
		ch.nextCASAny = max64(ch.nextCASAny, end)
		ch.nextACTAny = max64(ch.nextACTAny, end)
		ch.nextRefresh += uint64(ch.p.TREFI)
		return true
	}
	return false
}

func (ch *channel) full() bool { return len(ch.queue) >= ch.p.RequestBuffer }

func (ch *channel) enqueue(r *Request) {
	ch.seq++
	r.seq = ch.seq
	ch.queue = append(ch.queue, r)
	if b := ch.bankOf(r); b.openRow == r.coord.Row {
		b.hits++
	}
	ch.hintValid = false
}

// bankOf returns r's bank; r.slice was resolved once at Submit.
func (ch *channel) bankOf(r *Request) *bank { return &ch.banks[r.slice] }

// casReady reports whether the column command for r is legal at dc.
func (ch *channel) casReady(r *Request, dc uint64) bool {
	b := ch.bankOf(r)
	if b.openRow != r.coord.Row {
		return false
	}
	if dc < ch.nextCASAny || dc < ch.nextCASPerBG[r.bg] {
		return false
	}
	if r.Kind == Read {
		return dc >= b.nextRead && dc >= ch.nextReadOK
	}
	return dc >= b.nextWrite && dc >= ch.nextWriteOK
}

// actReady reports whether an ACT to r's bank is legal at dc.
func (ch *channel) actReady(r *Request, dc uint64) bool {
	b := ch.bankOf(r)
	if b.openRow != -1 || dc < b.nextAct {
		return false
	}
	if dc < ch.nextACTAny || dc < ch.nextACTPerBG[r.bg] {
		return false
	}
	// tFAW: the 4th-most-recent ACT bounds the new one.
	if ch.actCount < len(ch.actWindow) {
		return true
	}
	return dc >= ch.actWindow[ch.actWindowPos]+uint64(ch.p.TFAW)
}

// issueCAS issues the column command for r at dc and returns the DRAM
// cycle at which the data burst completes.
func (ch *channel) issueCAS(r *Request, dc uint64) (doneAt uint64) {
	b := ch.bankOf(r)
	ch.hintValid = false
	ch.nextCASAny = dc + uint64(ch.p.TCCDS)
	ch.nextCASPerBG[r.bg] = dc + uint64(ch.p.TCCDL)
	if r.Kind == Read {
		doneAt = dc + uint64(ch.p.CL) + uint64(ch.p.TBURST)
		if np := dc + uint64(ch.p.TRTP); np > b.nextPre {
			b.nextPre = np
		}
		ch.nextWriteOK = max64(ch.nextWriteOK, dc+uint64(ch.p.CL)+uint64(ch.p.TBURST)+uint64(ch.p.TRTW)-uint64(ch.p.CWL))
	} else {
		doneAt = dc + uint64(ch.p.CWL) + uint64(ch.p.TBURST)
		if np := doneAt + uint64(ch.p.TWR); np > b.nextPre {
			b.nextPre = np
		}
		ch.nextReadOK = max64(ch.nextReadOK, doneAt+uint64(ch.p.TWTR))
	}
	return doneAt
}

// issueACT opens r's row at dc. The bank's hit count is recounted
// here, once per ACT: the requests queued for the new row arrived
// while it was closed, so no incremental update saw them.
func (ch *channel) issueACT(r *Request, dc uint64) {
	b := ch.bankOf(r)
	ch.hintValid = false
	b.openRow = r.coord.Row
	b.hits = 0
	for _, q := range ch.queue {
		if q.slice == r.slice && q.coord.Row == b.openRow {
			b.hits++
		}
	}
	b.nextRead = dc + uint64(ch.p.TRCD)
	b.nextWrite = dc + uint64(ch.p.TRCD)
	if np := dc + uint64(ch.p.TRAS); np > b.nextPre {
		b.nextPre = np
	}
	ch.nextACTAny = dc + uint64(ch.p.TRRDS)
	ch.nextACTPerBG[r.bg] = dc + uint64(ch.p.TRRDL)
	ch.actWindow[ch.actWindowPos] = dc
	ch.actWindowPos = (ch.actWindowPos + 1) % len(ch.actWindow)
	ch.actCount++
}

// issuePRE closes the open row of r's bank at dc.
func (ch *channel) issuePRE(r *Request, dc uint64) {
	b := ch.bankOf(r)
	b.openRow = -1
	b.hits = 0
	b.nextAct = max64(b.nextAct, dc+uint64(ch.p.TRP))
	ch.hintValid = false
}

// hasPendingHit reports whether any queued request targets the
// currently open row of the same bank as r — FR-FCFS will not close a
// row other requests can still hit.
func (ch *channel) hasPendingHit(r *Request) bool { return ch.bankOf(r).hits > 0 }

func (ch *channel) remove(r *Request) {
	for i, q := range ch.queue {
		if q == r {
			ch.queue = append(ch.queue[:i], ch.queue[i+1:]...)
			if b := ch.bankOf(r); b.openRow == r.coord.Row {
				b.hits--
			}
			ch.hintValid = false
			return
		}
	}
}

// casReadyAt returns the earliest DRAM cycle at which r's column
// command becomes legal, assuming its row is (and stays) open. The
// trackers are frozen between commands, so the bound is exact.
func (ch *channel) casReadyAt(r *Request) uint64 {
	b := ch.bankOf(r)
	at := max64(ch.nextCASAny, ch.nextCASPerBG[r.bg])
	if r.Kind == Read {
		return max64(at, max64(b.nextRead, ch.nextReadOK))
	}
	return max64(at, max64(b.nextWrite, ch.nextWriteOK))
}

// actReadyAt returns the earliest DRAM cycle at which an ACT to r's
// bank becomes legal, assuming the bank is (and stays) precharged.
func (ch *channel) actReadyAt(r *Request) uint64 {
	b := ch.bankOf(r)
	at := max64(b.nextAct, max64(ch.nextACTAny, ch.nextACTPerBG[r.bg]))
	if ch.actCount >= len(ch.actWindow) {
		at = max64(at, ch.actWindow[ch.actWindowPos]+uint64(ch.p.TFAW))
	}
	return at
}

// earliestAction returns the smallest DRAM cycle at which tickChannel
// would do anything on frozen state: fire the refresh, or issue a CAS,
// PRE or ACT for some queued request. Requests blocked behind pending
// row hits contribute nothing — the hitting request's own CAS bound
// covers the wake. The refresh deadline bounds the result whenever
// refresh is enabled, so no jump can overshoot a refresh. The result
// is cached until the next state change.
func (ch *channel) earliestAction() uint64 {
	if ch.hintValid {
		return ch.hintMin
	}
	min := uint64(1<<64 - 1)
	if ch.p.TREFI != 0 {
		min = ch.nextRefresh
	}
	for _, r := range ch.queue {
		b := ch.bankOf(r)
		var at uint64
		switch {
		case b.openRow == r.coord.Row:
			at = ch.casReadyAt(r)
		case b.openRow != -1:
			if ch.hasPendingHit(r) {
				continue
			}
			at = b.nextPre
		default:
			at = ch.actReadyAt(r)
		}
		if at < min {
			min = at
		}
	}
	ch.hintMin, ch.hintValid = min, true
	return min
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
