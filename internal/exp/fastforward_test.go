package exp

import (
	"bytes"
	"testing"

	"dx100/internal/workloads"
)

// The quiescence-aware engine's contract: a run with idle-cycle
// fast-forward enabled is byte-identical — final cycle count, every
// statistic — to the same run stepped cycle by cycle. These tests pin
// that end to end, across all three system modes and the warmed-LLC
// setup, and check that the fast path actually engages (a hint bug
// that silently disabled jumping would otherwise never fail a test).

func ffPair(t *testing.T, name string, cfg SystemConfig) (on, off Result) {
	t.Helper()
	cfg.NoFastForward = false
	rOn, err := Run(name, 1, cfg)
	if err != nil {
		t.Fatalf("%s/%s ff on: %v", name, cfg.Mode, err)
	}
	cfg.NoFastForward = true
	rOff, err := Run(name, 1, cfg)
	if err != nil {
		t.Fatalf("%s/%s ff off: %v", name, cfg.Mode, err)
	}
	return rOn, rOff
}

func TestFastForwardResultEquivalence(t *testing.T) {
	for _, name := range detNames {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			on, off := ffPair(t, name, Default(mode))
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
	on, off := ffPair(t, "GZZ", cfg)
	if k1, k2 := resultKey(on), resultKey(off); k1 != k2 {
		t.Errorf("warmed GZZ/dx100: fast-forward changed the results\n--- ff on ---\n%s\n--- ff off ---\n%s", k1, k2)
	}
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
		jumps, skipped := s.eng.FastForwarded()
		if jumps == 0 || skipped == 0 {
			t.Errorf("%s: fast-forward never engaged (jumps=%d skipped=%d) — some hint permanently declines", mode, jumps, skipped)
		} else {
			t.Logf("%s: %d jumps skipped %d of %d cycles", mode, jumps, skipped, s.eng.Now())
		}
	}
}
