package dram

import (
	"math/rand"
	"testing"

	"dx100/internal/sample/ckpt"
	"dx100/internal/sim"
)

// Each bank counts the queued requests that target its open row, so
// FR-FCFS's pending-hit check is O(1). These tests drive random streams
// confined to a few rows per bank — requests both hit and conflict —
// through Submit, single-edge Ticks, fast-forward jumps and a
// checkpoint round trip, and after every submit and every advance
// compare each count with the O(queue) scan the check used to run.

// scanHits is the reference: how many requests queued on ch target
// the open row of bank slice.
func scanHits(ch *channel, slice int) int {
	b := &ch.banks[slice]
	if b.openRow == -1 {
		return 0
	}
	n := 0
	for _, q := range ch.queue {
		if q.coord.Slice(&ch.p) == slice && q.coord.Row == b.openRow {
			n++
		}
	}
	return n
}

// checkHitCounts fails t unless every bank's count equals the scan and
// every queued request's Submit-resolved indices match its coordinates.
func checkHitCounts(t testing.TB, s *System, when string) {
	t.Helper()
	for ci, ch := range s.chans {
		for _, q := range ch.queue {
			if q.slice != q.coord.Slice(&s.p) || q.bg != q.coord.Rank*s.p.BankGroups+q.coord.BankGroup {
				t.Fatalf("%s: channel %d: request %+v resolved to slice %d, bank group %d", when, ci, q.coord, q.slice, q.bg)
			}
		}
		for bi := range ch.banks {
			if got, want := ch.banks[bi].hits, scanHits(ch, bi); got != want {
				t.Fatalf("%s: channel %d bank %d (open row %d): hits = %d, scan = %d",
					when, ci, bi, ch.banks[bi].openRow, got, want)
			}
		}
	}
}

// driveHitCounts submits n random reads and writes over `rows` rows
// per bank into a system with a short refresh interval, advancing it
// by a random mix of single-edge Ticks and fast-forward jumps and
// checking the hit counts after every submit and every advance. Once
// half the stream is in, it drains the queues, checkpoints, and
// carries on with a system restored from that checkpoint. It returns
// the shared stats.
func driveHitCounts(t testing.TB, seed int64, n, rows int) *sim.Stats {
	t.Helper()
	p := DDR4_3200()
	p.TREFI = 400
	p.TRFC = 60
	stats := sim.NewStats()
	s := NewSystem(sim.NewEngine(), p, stats, "dram.")
	rng := rand.New(rand.NewSource(seed))
	m := s.Mapper()
	div := sim.Cycle(p.ClkDiv)
	var now sim.Cycle // last cycle the system has been advanced through
	submitted, restored := 0, false
	for advances := 0; submitted < n || !s.Quiet(); advances++ {
		if advances > 1_000_000 {
			t.Fatalf("seed %d: stream not drained after %d advances", seed, advances)
		}
		if !restored && submitted >= n/2 && s.Quiet() {
			var w ckpt.Writer
			if err := s.CheckpointSave(&w); err != nil {
				t.Fatal(err)
			}
			s = NewSystem(sim.NewEngine(), p, stats, "dram.")
			if err := s.CheckpointLoad(ckpt.NewReader(w.Bytes())); err != nil {
				t.Fatal(err)
			}
			restored = true
			checkHitCounts(t, s, "restore")
		}
		// Hold submissions once half the stream is in until the
		// checkpoint has been taken on empty queues.
		for burst := rng.Intn(6); burst > 0 && submitted < n && (restored || submitted < n/2); burst-- {
			c := Coord{
				Channel:   rng.Intn(p.Channels),
				Rank:      rng.Intn(p.Ranks),
				BankGroup: rng.Intn(p.BankGroups),
				Bank:      rng.Intn(p.Banks),
				Row:       rng.Intn(rows),
				Column:    rng.Intn(p.LinesPerRow()),
			}
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			if !s.Submit(&Request{Addr: m.Unmap(c), Kind: kind}) {
				break
			}
			submitted++
			checkHitCounts(t, s, "submit")
		}
		next := (now/div + 1) * div
		if rng.Intn(2) == 0 {
			s.Tick(next)
			now = next
			checkHitCounts(t, s, "Tick")
			continue
		}
		// Jump the way the engine's fast-forward does: account the
		// inert edges before the next wake, then tick at it.
		w, _ := s.NextWake(now)
		if w == sim.NeverWake {
			w = next
		}
		s.SkipCycles(now, w)
		s.Tick(w)
		now = w
		checkHitCounts(t, s, "jump")
	}
	if !restored {
		t.Fatalf("seed %d: stream ended before the checkpoint", seed)
	}
	return stats
}

func TestBankHitCountsMatchScan(t *testing.T) {
	var hits, confl, refreshes, writes float64
	for seed := int64(1); seed <= 4; seed++ {
		st := driveHitCounts(t, seed, 800, int(seed))
		hits += st.Get("dram.rowhits")
		confl += st.Get("dram.rowconflicts")
		refreshes += st.Get("dram.refreshes")
		writes += st.Get("dram.writes")
	}
	// The streams must reach every path that moves a count.
	if hits == 0 || confl == 0 || refreshes == 0 || writes == 0 {
		t.Fatalf("streams too tame: %v row hits, %v conflicts, %v refreshes, %v writes", hits, confl, refreshes, writes)
	}
}

func FuzzBankHitCounts(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		driveHitCounts(t, seed, 200, 1+int(rows%8))
	})
}
