package dx100

import "dx100/internal/dram"

// RowTableConfig sizes the Indirect Access unit's reordering structure
// (§3.2, Figure 4): each DRAM bank gets a slice whose BCAM holds Rows
// target rows, each with Cols column entries in SRAM.
type RowTableConfig struct {
	Rows int // BCAM entries per slice (64 in Table 3)
	Cols int // column entries per row (8 in Table 3)
}

// DefaultRowTableConfig returns the 64x8 organization of Table 3.
func DefaultRowTableConfig() RowTableConfig { return RowTableConfig{Rows: 64, Cols: 8} }

// wordEntry is one Word Table slot: the word offset within its cache
// line and a link to the previous iteration targeting the same column
// (Figure 4c).
type wordEntry struct {
	wordOff uint8
	prev    int32
}

// colEntry is one SRAM column slot (Figure 4b).
type colEntry struct {
	valid bool
	sent  bool
	col   int
	hit   bool  // H bit: line present in the cache hierarchy
	tail  int32 // head of the word linked list (most recent iteration)
	words int
}

// rowEntry is one BCAM row slot.
type rowEntry struct {
	valid bool
	row   int
	cols  []colEntry
}

type slice struct {
	rows    []rowEntry
	curRow  int // row currently being drained; -1 when none
	pending int // allocated, unsent columns in this slice
}

// ColumnReq identifies one generated memory request: the slice/row/col
// entry coordinates (used to locate the entry on response) plus the
// decoded DRAM target.
type ColumnReq struct {
	GSlice  int // global slice = channel * banksPerChannel + slice
	RowSlot int
	ColSlot int
	Row     int
	Col     int
	Hit     bool
	Words   int
}

// WordRef is one tile element served by a column response.
type WordRef struct {
	Iter    int
	WordOff int
}

// RowTable is the full reordering structure: one slice per DRAM bank
// across all channels, plus the Word Table linking tile elements to
// columns. It is purely structural — the timing unit drives it.
type RowTable struct {
	p      dram.Params
	cfg    RowTableConfig
	slices []slice
	words  []wordEntry
	order  []int // slice visit order: channel-interleaved, then bank-group
	cursor int

	pendingCols int // allocated, unsent columns
	sentCols    int // sent, response outstanding

	// Statistics, maintained structurally.
	Inserts   int // total words inserted
	Coalesced int // words merged into an existing unsent column
	ColsAlloc int // column entries allocated (= memory requests)
	RowsAlloc int // row entries allocated
	Stalls    int // failed inserts (table full)
}

// NewRowTable builds the structure for the given DRAM organization and
// tile capacity (the Word Table has one slot per tile element).
func NewRowTable(p dram.Params, cfg RowTableConfig, tileCap int) *RowTable {
	n := p.TotalBanks()
	rt := &RowTable{
		p:      p,
		cfg:    cfg,
		slices: make([]slice, n),
		words:  make([]wordEntry, tileCap),
	}
	for i := range rt.slices {
		rows := make([]rowEntry, cfg.Rows)
		for r := range rows {
			rows[r].cols = make([]colEntry, cfg.Cols)
		}
		rt.slices[i] = slice{rows: rows, curRow: -1}
	}
	// Predetermined arbitration order (§3.2): consecutive requests
	// alternate channel first, then bank group, then bank — maximizing
	// channel utilization and bank-group interleaving.
	banks := p.Banks * p.Ranks
	for ba := 0; ba < banks; ba++ {
		for bg := 0; bg < p.BankGroups; bg++ {
			for ch := 0; ch < p.Channels; ch++ {
				// Recover (rank, bank) from ba: rank-major.
				rank := ba / p.Banks
				bank := ba % p.Banks
				sliceIdx := (rank*p.BankGroups+bg)*p.Banks + bank
				rt.order = append(rt.order, ch*p.BanksPerChannel()+sliceIdx)
			}
		}
	}
	// Interleave channels innermost: rebuild so order walks
	// ch0,ch1,ch0,ch1... across (bg, bank) pairs — already the case
	// above since ch is the innermost loop.
	return rt
}

// Pending returns the number of allocated, unsent columns.
func (rt *RowTable) Pending() int { return rt.pendingCols }

// Outstanding returns columns whose response has not yet been
// processed.
func (rt *RowTable) Outstanding() int { return rt.pendingCols + rt.sentCols }

// Insert records that tile element iter targets the given DRAM
// coordinate at word offset wordOff within its cache line. snoop is
// called once per newly allocated column to fill the H bit (§3.6). It
// reports false when the target slice is full, in which case the fill
// stage must stall until a drain frees entries.
func (rt *RowTable) Insert(iter int, c dram.Coord, wordOff int, snoop func() bool) bool {
	gs := c.GlobalBank(&rt.p)
	s := &rt.slices[gs]
	var freeRow = -1
	for r := range s.rows {
		re := &s.rows[r]
		if !re.valid {
			if freeRow < 0 {
				freeRow = r
			}
			continue
		}
		if re.row != c.Row {
			continue
		}
		var freeCol = -1
		for ci := range re.cols {
			ce := &re.cols[ci]
			if !ce.valid {
				if freeCol < 0 {
					freeCol = ci
				}
				continue
			}
			if ce.col == c.Column && !ce.sent {
				// Coalesce: link this word into the column's list.
				rt.words[iter] = wordEntry{wordOff: uint8(wordOff), prev: ce.tail}
				ce.tail = int32(iter)
				ce.words++
				rt.Inserts++
				rt.Coalesced++
				return true
			}
		}
		if freeCol >= 0 {
			rt.allocCol(&re.cols[freeCol], iter, c, wordOff, snoop)
			s.pending++
			return true
		}
		// Row exists but its column slots are full: fall through and
		// try to allocate a duplicate row entry.
	}
	if freeRow < 0 {
		rt.Stalls++
		return false
	}
	// A free row's column slots are already zero: Respond zeroes every
	// column it frees.
	re := &s.rows[freeRow]
	re.valid = true
	re.row = c.Row
	rt.RowsAlloc++
	rt.allocCol(&re.cols[0], iter, c, wordOff, snoop)
	s.pending++
	return true
}

func (rt *RowTable) allocCol(ce *colEntry, iter int, c dram.Coord, wordOff int, snoop func() bool) {
	hit := false
	if snoop != nil {
		hit = snoop()
	}
	*ce = colEntry{valid: true, col: c.Column, hit: hit, tail: int32(iter), words: 1}
	rt.words[iter] = wordEntry{wordOff: uint8(wordOff), prev: -1}
	rt.Inserts++
	rt.ColsAlloc++
	rt.pendingCols++
}

// NextRequest pops the next column to issue, arbitrating across slices
// in the channel/bank-group-interleaved order while draining each
// slice's current row to completion — the order that yields
// consecutive row-buffer hits per bank and interleaved traffic across
// banks (§3.2, operation stage 2).
func (rt *RowTable) NextRequest() (ColumnReq, bool) {
	if rt.pendingCols == 0 {
		return ColumnReq{}, false
	}
	for tries := 0; tries < len(rt.order); tries++ {
		gs := rt.order[rt.cursor]
		rt.cursor = (rt.cursor + 1) % len(rt.order)
		s := &rt.slices[gs]
		if s.pending == 0 {
			continue
		}
		r, c := rt.pickColumn(s)
		if r < 0 {
			continue
		}
		ce := &s.rows[r].cols[c]
		ce.sent = true
		rt.pendingCols--
		rt.sentCols++
		s.pending--
		s.curRow = r
		return ColumnReq{
			GSlice: gs, RowSlot: r, ColSlot: c,
			Row: s.rows[r].row, Col: ce.col, Hit: ce.hit, Words: ce.words,
		}, true
	}
	return ColumnReq{}, false
}

// pickColumn finds the next unsent column of a slice, preferring the
// row already being drained.
func (rt *RowTable) pickColumn(s *slice) (row, col int) {
	if s.curRow >= 0 && s.rows[s.curRow].valid {
		if c := unsentCol(&s.rows[s.curRow]); c >= 0 {
			return s.curRow, c
		}
	}
	for r := range s.rows {
		if !s.rows[r].valid {
			continue
		}
		if c := unsentCol(&s.rows[r]); c >= 0 {
			return r, c
		}
	}
	return -1, -1
}

func unsentCol(re *rowEntry) int {
	for c := range re.cols {
		if re.cols[c].valid && !re.cols[c].sent {
			return c
		}
	}
	return -1
}

// Respond consumes the response for req: it walks the word linked
// list, frees the column (and the row once empty), and appends the
// tile elements the line serves to dst. Freed entries are zeroed, so a
// table whose responses have all arrived is as empty as a new one and
// serves the next instruction without a reset.
func (rt *RowTable) Respond(req ColumnReq, dst []WordRef) []WordRef {
	s := &rt.slices[req.GSlice]
	re := &s.rows[req.RowSlot]
	ce := &re.cols[req.ColSlot]
	for it := ce.tail; it >= 0; it = rt.words[it].prev {
		dst = append(dst, WordRef{Iter: int(it), WordOff: int(rt.words[it].wordOff)})
	}
	*ce = colEntry{}
	rt.sentCols--
	empty := true
	for c := range re.cols {
		if re.cols[c].valid {
			empty = false
			break
		}
	}
	if empty {
		re.valid, re.row = false, 0
		if s.curRow == req.RowSlot {
			s.curRow = -1
		}
	}
	return dst
}

// Coord reconstructs the DRAM coordinate of a request.
func (rt *RowTable) Coord(req ColumnReq) dram.Coord {
	bpc := rt.p.BanksPerChannel()
	ch := req.GSlice / bpc
	sl := req.GSlice % bpc
	bank := sl % rt.p.Banks
	bg := (sl / rt.p.Banks) % rt.p.BankGroups
	rank := sl / (rt.p.Banks * rt.p.BankGroups)
	return dram.Coord{Channel: ch, Rank: rank, BankGroup: bg, Bank: bank, Row: req.Row, Column: req.Col}
}
