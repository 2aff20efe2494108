package exp

import (
	"fmt"
	"reflect"
	"testing"

	"dx100/internal/obs"
	"dx100/internal/workloads"
)

// profileWindow is the sampling interval used by these tests: small
// enough that scale-1 runs record several windows.
const profileWindow = 8192

// TestStallAttributionConservation is the acceptance invariant of the
// cycle attribution accounter: for every workload in the quick suite,
// on both the baseline and DX100 systems, each core's bucket counts
// sum exactly to its cycles counter — every counted cycle lands in
// exactly one bucket, whether it was stepped or fast-forwarded over.
func TestStallAttributionConservation(t *testing.T) {
	for _, name := range workloads.Order {
		for _, mode := range []Mode{Baseline, DX} {
			name, mode := name, mode
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				res, err := RunOpts(name, 1, Default(mode), RunOptions{ProfileWindow: profileWindow})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stalls == nil {
					t.Fatal("profiled run returned no stall breakdown")
				}
				checkConservation(t, res)
			})
		}
	}
}

func checkConservation(t *testing.T, res Result) {
	t.Helper()
	for i, counts := range res.Stalls.Cores {
		var sum uint64
		for _, c := range counts {
			sum += c
		}
		cycles := res.Stats.Get(fmt.Sprintf("core%d.cycles", i))
		if float64(sum) != cycles {
			t.Errorf("core %d: buckets sum to %d, cycles counter says %.0f (counts %v)",
				i, sum, cycles, counts)
		}
	}
}

// TestProfileResultNeutral pins the observation-only contract of
// simprof: modulo the Timeline/Stalls fields themselves, a profiled
// run produces a byte-identical wire-form Result to a plain run — the
// sampler and the attribution accounts never feed back into the model.
func TestProfileResultNeutral(t *testing.T) {
	for _, name := range []string{"micro.gather", "GZZ"} {
		t.Run(name, func(t *testing.T) {
			profiled, err := RunOpts(name, 1, Default(DX), RunOptions{ProfileWindow: profileWindow})
			if err != nil {
				t.Fatal(err)
			}
			if profiled.Timeline == nil || profiled.Timeline.Len() == 0 {
				t.Fatal("profiled run recorded no timeline")
			}
			profiled.Timeline, profiled.Stalls = nil, nil
			requireSame(t, "profiled run", ref(t, plain(name, DX)).wire, wireOf(t, profiled))
		})
	}
}

// TestBreakdownFastForwardEquivalence pins the bulk-attribution path:
// classifying a core's frozen state once per jump must produce exactly
// the per-bucket counts that cycle-by-cycle stepping produces, for a
// DRAM-stall-heavy baseline run and a DX100 run.
func TestBreakdownFastForwardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"GZZ", Baseline},
		{"micro.gather", DX},
	} {
		t.Run(fmt.Sprintf("%s/%s", tc.name, tc.mode), func(t *testing.T) {
			cfg := Default(tc.mode)
			ff, err := RunOpts(tc.name, 1, cfg, RunOptions{ProfileWindow: profileWindow})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := RunOpts(tc.name, 1, cfg, RunOptions{ProfileWindow: profileWindow, NoFastForward: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ff.Stalls, exact.Stalls) {
				t.Fatalf("fast-forwarded breakdown differs from exact stepping:\nff:    %+v\nexact: %+v",
					ff.Stalls, exact.Stalls)
			}
		})
	}
}

// TestTimelineShape checks the recorded telemetry itself: several
// monotone windows ending exactly at the run's cycle count, the
// expected probe set for a DX100 system, and physically sensible
// values (ratios within [0,1], non-negative queues).
func TestTimelineShape(t *testing.T) {
	res, err := RunOpts("micro.gather", 1, Default(DX), RunOptions{ProfileWindow: profileWindow})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("no timeline")
	}
	if tl.Window != profileWindow {
		t.Errorf("window = %d, want %d", tl.Window, profileWindow)
	}
	if tl.Len() < 2 {
		t.Fatalf("only %d windows over a %d-cycle run", tl.Len(), res.Cycles)
	}
	prev := uint64(0)
	for _, c := range tl.Cycles {
		if c <= prev {
			t.Fatalf("cycles not strictly increasing: %v", tl.Cycles)
		}
		prev = c
	}
	if last := tl.Cycles[tl.Len()-1]; last != uint64(res.Cycles) {
		t.Errorf("last window ends at %d, run took %d cycles", last, res.Cycles)
	}
	series := map[string][]float64{}
	for _, s := range tl.Series {
		if len(s.Values) != tl.Len() {
			t.Errorf("series %s has %d values for %d windows", s.Name, len(s.Values), tl.Len())
		}
		series[s.Name] = s.Values
	}
	nchan := Default(DX).DRAM.Channels
	want := []string{"bw_util", "row_buffer_hit", "mpki", "dx100.queue", "ff_skip"}
	for i := 0; i < nchan; i++ {
		want = append(want, fmt.Sprintf("chan%d.queue", i))
	}
	for _, name := range want {
		if _, ok := series[name]; !ok {
			t.Errorf("probe %s missing (have %v)", name, keys(series))
		}
	}
	for _, name := range []string{"bw_util", "row_buffer_hit", "ff_skip"} {
		for i, v := range series[name] {
			if v < 0 || v > 1 {
				t.Errorf("%s[%d] = %v, want a ratio in [0,1]", name, i, v)
			}
		}
	}
	// The gather microkernel moves real data: the bandwidth column must
	// not be all zero.
	sum := 0.0
	for _, v := range series["bw_util"] {
		sum += v
	}
	if sum == 0 {
		t.Error("bw_util is identically zero over a gather run")
	}
}

func keys(m map[string][]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestProfileOnSampleAndTraceOverlay checks the two live consumers of
// timeline rows: the OnSample callback (dx100d's SSE stream) sees every
// recorded row in order, and an attached trace sink receives one
// EvProfCounter event per probe per row for the Chrome overlay.
func TestProfileOnSampleAndTraceOverlay(t *testing.T) {
	sink := obs.NewSink(1 << 16)
	var sampleCycles []uint64
	var rows int
	res, err := RunOpts("micro.gather", 1, Default(DX), RunOptions{
		ProfileWindow: profileWindow,
		Trace:         sink,
		OnSample: func(cycle uint64, names []string, values []float64) {
			if len(names) != len(values) {
				t.Fatalf("names/values mismatch: %d vs %d", len(names), len(values))
			}
			sampleCycles = append(sampleCycles, cycle)
			rows++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != res.Timeline.Len() {
		t.Errorf("OnSample saw %d rows, timeline has %d", rows, res.Timeline.Len())
	}
	for i, c := range sampleCycles {
		if c != res.Timeline.Cycles[i] {
			t.Errorf("OnSample cycle %d = %d, timeline says %d", i, c, res.Timeline.Cycles[i])
		}
	}
	var counters int
	probes := map[string]bool{}
	for _, ev := range sink.Events() {
		if ev.Kind == obs.EvProfCounter {
			counters++
			probes[ev.Src] = true
		}
	}
	wantPerRow := len(res.Timeline.Series)
	if want := rows * wantPerRow; counters != want {
		t.Errorf("trace carries %d counter events, want %d (%d rows x %d probes)",
			counters, want, rows, wantPerRow)
	}
	if !probes["bw_util"] {
		t.Errorf("no bw_util counter track in the trace (have %v)", probes)
	}
}
