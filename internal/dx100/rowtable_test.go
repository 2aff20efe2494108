package dx100

import (
	"math/rand"
	"reflect"
	"testing"

	"dx100/internal/dram"
	"dx100/internal/memspace"
)

func newRT() (*RowTable, *dram.Mapper) {
	p := dram.DDR4_3200()
	return NewRowTable(p, DefaultRowTableConfig(), 16384), dram.NewMapper(p)
}

func TestRowTableCoalescing(t *testing.T) {
	rt, _ := newRT()
	c := dram.Coord{Row: 3, Column: 7}
	// Four words in the same cache line: one request, four word refs.
	for i := 0; i < 4; i++ {
		if !rt.Insert(i, c, i, nil) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if rt.ColsAlloc != 1 || rt.Coalesced != 3 {
		t.Fatalf("cols=%d coalesced=%d, want 1/3", rt.ColsAlloc, rt.Coalesced)
	}
	req, ok := rt.NextRequest()
	if !ok {
		t.Fatal("no request")
	}
	if req.Words != 4 {
		t.Fatalf("req.Words = %d", req.Words)
	}
	refs := rt.Respond(req, nil)
	if len(refs) != 4 {
		t.Fatalf("word refs = %d, want 4", len(refs))
	}
	seen := map[int]bool{}
	for _, r := range refs {
		seen[r.Iter] = true
		if r.WordOff != r.Iter {
			t.Fatalf("word off %d for iter %d", r.WordOff, r.Iter)
		}
	}
	if len(seen) != 4 {
		t.Fatal("duplicate iterations in word list")
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after respond", rt.Outstanding())
	}
}

func TestRowTableDrainOrderInterleavesChannels(t *testing.T) {
	rt, _ := newRT()
	p := dram.DDR4_3200()
	// Insert one column in every bank of both channels.
	iter := 0
	for ch := 0; ch < p.Channels; ch++ {
		for bg := 0; bg < p.BankGroups; bg++ {
			for ba := 0; ba < p.Banks; ba++ {
				c := dram.Coord{Channel: ch, BankGroup: bg, Bank: ba, Row: 1, Column: 0}
				if !rt.Insert(iter, c, 0, nil) {
					t.Fatal("insert failed")
				}
				iter++
			}
		}
	}
	// Consecutive requests must alternate channels, and within a
	// channel alternate bank groups.
	var lastCh = -1
	var reqs []ColumnReq
	for {
		req, ok := rt.NextRequest()
		if !ok {
			break
		}
		reqs = append(reqs, req)
		co := rt.Coord(req)
		if lastCh != -1 && co.Channel == lastCh {
			t.Fatalf("consecutive requests in channel %d", co.Channel)
		}
		lastCh = co.Channel
	}
	if len(reqs) != iter {
		t.Fatalf("drained %d of %d", len(reqs), iter)
	}
	// First four requests in channel 0 should cover distinct bank groups.
	bgSeen := map[int]bool{}
	cnt := 0
	for _, r := range reqs {
		co := rt.Coord(r)
		if co.Channel == 0 && cnt < 4 {
			bgSeen[co.BankGroup] = true
			cnt++
		}
	}
	if len(bgSeen) != 4 {
		t.Fatalf("first 4 ch0 requests cover %d bank groups, want 4", len(bgSeen))
	}
}

func TestRowTableGroupsRowsPerBank(t *testing.T) {
	rt, _ := newRT()
	// Two rows in the same bank, columns interleaved adversarially at
	// insert time. Drain order must still group each row's columns.
	cols := []int{0, 5, 9}
	iter := 0
	for _, col := range cols {
		for _, row := range []int{1, 2} {
			rt.Insert(iter, dram.Coord{Row: row, Column: col}, 0, nil)
			iter++
		}
	}
	var rows []int
	for {
		req, ok := rt.NextRequest()
		if !ok {
			break
		}
		rows = append(rows, req.Row)
		rt.Respond(req, nil)
	}
	if len(rows) != 6 {
		t.Fatalf("drained %d", len(rows))
	}
	// All requests to row r must be consecutive.
	switches := 0
	for i := 1; i < len(rows); i++ {
		if rows[i] != rows[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("row switches = %d, want 1 (grouped drain); order %v", switches, rows)
	}
}

func TestRowTableCapacityStall(t *testing.T) {
	p := dram.DDR4_3200()
	rt := NewRowTable(p, RowTableConfig{Rows: 2, Cols: 2}, 1024)
	// Same bank, distinct rows: capacity 2 rows.
	ok1 := rt.Insert(0, dram.Coord{Row: 1, Column: 0}, 0, nil)
	ok2 := rt.Insert(1, dram.Coord{Row: 2, Column: 0}, 0, nil)
	ok3 := rt.Insert(2, dram.Coord{Row: 3, Column: 0}, 0, nil)
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("capacity behaviour wrong: %v %v %v", ok1, ok2, ok3)
	}
	if rt.Stalls != 1 {
		t.Fatalf("stalls = %d", rt.Stalls)
	}
	// Drain one and retry.
	req, _ := rt.NextRequest()
	rt.Respond(req, nil)
	if !rt.Insert(2, dram.Coord{Row: 3, Column: 0}, 0, nil) {
		t.Fatal("insert after drain failed")
	}
}

func TestRowTableDuplicateRowWhenColsFull(t *testing.T) {
	p := dram.DDR4_3200()
	rt := NewRowTable(p, RowTableConfig{Rows: 4, Cols: 2}, 1024)
	// Three distinct columns of one row with only 2 col slots: third
	// allocates a duplicate row entry.
	rt.Insert(0, dram.Coord{Row: 1, Column: 0}, 0, nil)
	rt.Insert(1, dram.Coord{Row: 1, Column: 1}, 0, nil)
	rt.Insert(2, dram.Coord{Row: 1, Column: 2}, 0, nil)
	if rt.RowsAlloc != 2 {
		t.Fatalf("rows allocated = %d, want 2", rt.RowsAlloc)
	}
	total := 0
	for {
		req, ok := rt.NextRequest()
		if !ok {
			break
		}
		total += len(rt.Respond(req, nil))
	}
	if total != 3 {
		t.Fatalf("words drained = %d", total)
	}
}

func TestRowTableNoCoalesceAfterSent(t *testing.T) {
	rt, _ := newRT()
	c := dram.Coord{Row: 1, Column: 0}
	rt.Insert(0, c, 0, nil)
	req, _ := rt.NextRequest() // column now sent
	if !rt.Insert(1, c, 1, nil) {
		t.Fatal("insert after send failed")
	}
	if rt.Coalesced != 0 {
		t.Fatal("coalesced into an already-sent column")
	}
	if rt.ColsAlloc != 2 {
		t.Fatalf("cols = %d, want 2", rt.ColsAlloc)
	}
	// Both responses return exactly their own words.
	refs1 := rt.Respond(req, nil)
	if len(refs1) != 1 || refs1[0].Iter != 0 {
		t.Fatalf("first response refs %v", refs1)
	}
	req2, ok := rt.NextRequest()
	if !ok {
		t.Fatal("second request missing")
	}
	refs2 := rt.Respond(req2, nil)
	if len(refs2) != 1 || refs2[0].Iter != 1 {
		t.Fatalf("second response refs %v", refs2)
	}
}

func TestRowTableSnoopOncePerColumn(t *testing.T) {
	rt, _ := newRT()
	snoops := 0
	snoop := func() bool { snoops++; return true }
	c := dram.Coord{Row: 1, Column: 0}
	rt.Insert(0, c, 0, snoop)
	rt.Insert(1, c, 1, snoop)
	if snoops != 1 {
		t.Fatalf("snoops = %d, want 1 (once per column)", snoops)
	}
	req, _ := rt.NextRequest()
	if !req.Hit {
		t.Fatal("H bit lost")
	}
}

func TestRowTableRandomizedConservation(t *testing.T) {
	// Property: every inserted word comes back exactly once across all
	// responses, for random address patterns with interleaved drains.
	rng := rand.New(rand.NewSource(7))
	p := dram.DDR4_3200()
	rt := NewRowTable(p, DefaultRowTableConfig(), 16384)
	mapper := dram.NewMapper(p)
	n := 5000
	got := make([]int, n)
	inserted := 0
	drainOne := func() bool {
		req, ok := rt.NextRequest()
		if !ok {
			return false
		}
		for _, w := range rt.Respond(req, nil) {
			got[w.Iter]++
		}
		return true
	}
	for inserted < n {
		pa := uint64(rng.Intn(1 << 26))
		co := mapper.Map(memspace.PAddr(pa &^ 63))
		off := int(pa % 64 / 4)
		if rt.Insert(inserted, co, off, nil) {
			inserted++
		} else if !drainOne() {
			t.Fatal("table full but nothing to drain")
		}
	}
	for drainOne() {
	}
	for i, g := range got {
		if g != 1 {
			t.Fatalf("iter %d returned %d times", i, g)
		}
	}
	if rt.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", rt.Outstanding())
	}
}

// TestRowTableDrainsToFresh pins what lets dispatch reuse a Row Table
// without clearing it: once every column's response has arrived, its
// slices equal a new table's, whatever order the inserts, requests and
// responses came in. Small slices make inserts fail and rows repeat.
func TestRowTableDrainsToFresh(t *testing.T) {
	p := dram.DDR4_3200()
	cfg := RowTableConfig{Rows: 4, Cols: 2}
	mapper := dram.NewMapper(p)
	rng := rand.New(rand.NewSource(13))
	rt := NewRowTable(p, cfg, 4096)
	for round := 0; round < 3; round++ {
		var sent []ColumnReq
		words := 0
		respond := func() {
			i := rng.Intn(len(sent))
			words += len(rt.Respond(sent[i], nil))
			sent[i] = sent[len(sent)-1]
			sent = sent[:len(sent)-1]
		}
		for iter := 0; iter < 4096; {
			switch x := rng.Intn(4); {
			case x == 0:
				if req, ok := rt.NextRequest(); ok {
					sent = append(sent, req)
				}
			case x == 1 && len(sent) > 0:
				respond()
			default:
				co := mapper.Map(memspace.PAddr(rng.Intn(1<<20)) &^ 63)
				if rt.Insert(iter, co, rng.Intn(16), nil) {
					iter++
				}
			}
		}
		for {
			req, ok := rt.NextRequest()
			if !ok {
				break
			}
			sent = append(sent, req)
		}
		for len(sent) > 0 {
			respond()
		}
		if words != 4096 || rt.Outstanding() != 0 {
			t.Fatalf("round %d: %d of 4096 words returned, %d columns outstanding", round, words, rt.Outstanding())
		}
		if !reflect.DeepEqual(rt.slices, NewRowTable(p, cfg, 4096).slices) {
			t.Fatalf("round %d: the drained Row Table's slices differ from a new table's", round)
		}
	}
	if rt.Stalls == 0 || rt.Coalesced == 0 {
		t.Fatalf("stalls=%d coalesced=%d: the sequence never filled a slice or merged a word", rt.Stalls, rt.Coalesced)
	}
}
