package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dx100/internal/obs"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// The quiescence-aware engine's contract: a run with idle-cycle
// fast-forward enabled is byte-identical — final cycle count, every
// statistic — to the same run stepped cycle by cycle. These tests pin
// that end to end, across all three system modes and the warmed-LLC
// setup, and check that the fast path actually engages (a hint bug
// that silently disabled jumping would otherwise never fail a test).

func ffPair(t *testing.T, name string, scale int, cfg SystemConfig) (on, off Result) {
	t.Helper()
	rOn, err := Run(name, scale, cfg)
	if err != nil {
		t.Fatalf("%s/%s ff on: %v", name, cfg.Mode, err)
	}
	rOff, err := RunOpts(name, scale, cfg, RunOptions{NoFastForward: true})
	if err != nil {
		t.Fatalf("%s/%s ff off: %v", name, cfg.Mode, err)
	}
	return rOn, rOff
}

func TestFastForwardResultEquivalence(t *testing.T) {
	for _, name := range detNames {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			on, off := ffPair(t, name, 1, Default(mode))
			if k1, k2 := resultKey(on), resultKey(off); k1 != k2 {
				t.Errorf("%s/%s: fast-forward changed the results\n--- ff on ---\n%s\n--- ff off ---\n%s",
					name, mode, k1, k2)
			}
			w1, err := ResultJSON(on)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := ResultJSON(off)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w1, w2) {
				t.Errorf("%s/%s: fast-forward changed the wire form\n--- ff on ---\n%s\n--- ff off ---\n%s",
					name, mode, w1, w2)
			}
		}
	}
}

func TestFastForwardEquivalenceWithWarmLLC(t *testing.T) {
	cfg := Default(DX)
	cfg.WarmLLC = true
	on, off := ffPair(t, "GZZ", 1, cfg)
	if k1, k2 := resultKey(on), resultKey(off); k1 != k2 {
		t.Errorf("warmed GZZ/dx100: fast-forward changed the results\n--- ff on ---\n%s\n--- ff off ---\n%s", k1, k2)
	}
}

// TestFastForwardEquivalenceUnderBackPressure covers the sleep states
// the scale-1 matrix never reaches: IS on DX100 at scale 3 blocks its
// fill on full Row Table slices for hundreds of thousands of cycles,
// which the accelerator sleeps through and counts in SkipCycles.
func TestFastForwardEquivalenceUnderBackPressure(t *testing.T) {
	on, off := ffPair(t, "IS", 3, Default(DX))
	if on.Stats.Get("dx100.0.rt.stalls") == 0 {
		t.Fatal("IS/dx100 at scale 3 counted no Row Table stalls: the case no longer reaches a blocked fill")
	}
	w1, err := ResultJSON(on)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ResultJSON(off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1, w2) {
		t.Errorf("IS/dx100 scale 3: fast-forward changed the wire form\n--- ff on ---\n%s\n--- ff off ---\n%s", w1, w2)
	}
}

// TestTraceSteppingNeutral pins that fast-forward changes only the
// engine's own trace events: with the "cat":"engine" lines removed, a
// DX run's whole trace is the same whether its cycles are stepped or
// jumped over.
func TestTraceSteppingNeutral(t *testing.T) {
	for _, name := range []string{"micro.gather", "IS", "XRAGE"} {
		t.Run(name, func(t *testing.T) {
			capture := func(noFF bool) (model []string, engine int) {
				var buf bytes.Buffer
				sink := obs.NewSink(0)
				sink.SpillJSONL(&buf)
				if _, err := RunOpts(name, 1, Default(DX), RunOptions{Trace: sink, NoFastForward: noFF}); err != nil {
					t.Fatal(err)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				for _, line := range strings.SplitAfter(buf.String(), "\n") {
					if strings.Contains(line, `"cat":"engine"`) {
						engine++
					} else if line != "" {
						model = append(model, line)
					}
				}
				return model, engine
			}
			on, jumps := capture(false)
			off, offJumps := capture(true)
			if jumps == 0 || offJumps != 0 {
				t.Fatalf("engine events: %d with fast-forward, %d without; want some, then none", jumps, offJumps)
			}
			for i := range min(len(on), len(off)) {
				if on[i] != off[i] {
					t.Fatalf("model event %d differs:\n ff on: %s ff off: %s", i+1, on[i], off[i])
				}
			}
			if len(on) != len(off) {
				t.Fatalf("%d model events with fast-forward, %d without", len(on), len(off))
			}
			t.Logf("%d model events identical; %d engine events", len(on), jumps)
		})
	}
}

// stepping is one run's engine stepping counters: visited cycles,
// jumps, skipped cycles, and the visited cycles each ticker type kept
// stepping by declining a jump.
type stepping struct {
	visited, jumps, skipped uint64
	declines                map[string]uint64
}

func steppingOf(e *sim.Engine) stepping {
	st := stepping{visited: e.Visited(), declines: map[string]uint64{}}
	st.jumps, st.skipped = e.FastForwarded()
	for _, d := range e.Declines() {
		if d.Cycles > 0 {
			st.declines[fmt.Sprintf("%T", d.Ticker)] += d.Cycles
		}
	}
	return st
}

// gzzStepping pins GZZ's scale-1 stepping counters. They are exact
// integers, so a hint that starts declining more often (or a jump that
// stops happening) fails here even though results stay identical.
var gzzStepping = map[Mode]stepping{
	Baseline: {visited: 214066, jumps: 130603, skipped: 699356, declines: map[string]uint64{
		"*cache.Cache": 286, "*cpu.Core": 48631, "*dram.System": 8651,
	}},
	DX: {visited: 59766, jumps: 44882, skipped: 109539, declines: map[string]uint64{
		"*cpu.Core": 10, "*dram.System": 2960, "*dx100.Accel": 11696,
	}},
}

func TestFastForwardEngages(t *testing.T) {
	for _, mode := range []Mode{Baseline, DX} {
		inst := workloads.Registry["GZZ"](1)
		s := build(inst, Default(mode))
		var err error
		if mode == DX {
			err = s.attachDXStreams(inst)
		} else {
			err = s.attachBaselineStreams(inst)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		got := steppingOf(s.eng)
		if got.jumps == 0 || got.skipped == 0 {
			t.Errorf("%s: fast-forward never engaged (jumps=%d skipped=%d) — some hint permanently declines", mode, got.jumps, got.skipped)
			continue
		}
		t.Logf("%s: %d jumps skipped %d of %d cycles; visited %d; declines %v",
			mode, got.jumps, got.skipped, s.eng.Now(), got.visited, got.declines)
		if want := gzzStepping[mode]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stepping counters %+v, want %+v", mode, got, want)
		}
	}
}
