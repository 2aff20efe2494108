package sim

import (
	"slices"
	"testing"
)

// orderDelays are the delays FuzzEventOrder draws from: next cycle, the
// last wheel slot, the first heap delay and its neighbour, and a few
// long timers. Zero schedules in the past, which fires next cycle.
var orderDelays = [...]Cycle{0, 1, 2, 63, 64, 65, 127, 200, 333}

// FuzzEventOrder pins the engine's event order across the wheel/heap
// split: whatever mix of delays is scheduled, including from inside
// callbacks, events fire exactly in (cycle, seq) order, each at its
// due cycle. A sparse hinter keeps fast-forward jumping, so jumps land
// on wheel events, heap events and hinter wakes alike.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	// Cycle 0 schedules delay 64 (heap, due 64); an event at cycle 1
	// then schedules delay 63 (wheel, due 64): the heap event must fire
	// first.
	f.Add([]byte{10, 4, 0x81, 1, 1, 3, 1})
	f.Add([]byte{200, 0x88, 0x83, 0x85, 5, 4, 3, 2, 1, 0x86, 7, 0x84, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := NewEngine()
		e.MaxCycles = 1 << 22
		e.Register(&sparseTicker{period: 5 + Cycle(data[0]%90), limit: 8})
		data = data[1:]

		type rec struct {
			at  Cycle
			seq int
		}
		var scheduled, fired []rec
		var schedule func(now Cycle)
		// schedule consumes one byte: its low bits pick the delay, its
		// high bit makes the event schedule two more when it fires.
		schedule = func(now Cycle) {
			if len(data) == 0 {
				return
			}
			b := data[0]
			data = data[1:]
			at := now + orderDelays[int(b&0x7f)%len(orderDelays)]
			r := rec{at: max(at, now+1), seq: len(scheduled)}
			scheduled = append(scheduled, r)
			e.Schedule(at, func(now Cycle) {
				if now != r.at {
					t.Fatalf("event %d due at cycle %d fired at %d", r.seq, r.at, now)
				}
				fired = append(fired, r)
				if b&0x80 != 0 {
					schedule(now)
					schedule(now)
				}
			})
		}
		for range 4 {
			schedule(0)
		}
		if _, err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(scheduled)
		slices.SortFunc(want, func(a, b rec) int {
			if a.at != b.at {
				return int(a.at) - int(b.at)
			}
			return a.seq - b.seq
		})
		if !slices.Equal(fired, want) {
			t.Fatalf("fired %v, want (cycle, seq) order %v", fired, want)
		}
		if e.EventsPending() {
			t.Fatal("events still pending after the run quiesced")
		}
	})
}
