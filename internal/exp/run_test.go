package exp

import (
	"reflect"
	"testing"

	"dx100/internal/loopir"
	"dx100/internal/workloads"
)

// expected computes the final memory the loopir interpreter gives an
// instance.
func expected(t *testing.T, inst *workloads.Instance) map[string][]uint64 {
	t.Helper()
	state := arrays(inst)
	for _, k := range inst.Kernels {
		env := &loopir.Env{Arrays: state, Params: k.Params}
		if err := loopir.Interpret(k, env); err != nil {
			t.Fatalf("interpret: %v", err)
		}
	}
	return state
}

// runVerified reads the reference run of a workload in the given
// system and checks that its final memory is the interpreter's.
func runVerified(t *testing.T, name string, scale int, cfg SystemConfig) Result {
	t.Helper()
	r := ref(t, cell{name: name, scale: scale, cfg: cfg})
	if memDigest(expected(t, workloads.Registry[name](scale))) != r.mem {
		t.Fatalf("%s/%s: final memory differs from the interpreter's", name, cfg.Mode)
	}
	res := r.result(t)
	if res.Cycles == 0 {
		t.Fatalf("%s/%s: zero cycles", name, cfg.Mode)
	}
	return res
}

func TestRunISAllModes(t *testing.T) {
	base := runVerified(t, "IS", 1, Default(Baseline))
	dmp := runVerified(t, "IS", 1, Default(DMP))
	dx := runVerified(t, "IS", 1, Default(DX))
	t.Logf("IS: baseline=%d dmp=%d dx=%d", base.Cycles, dmp.Cycles, dx.Cycles)
	if dx.Cycles >= base.Cycles {
		t.Fatalf("DX100 (%d) not faster than baseline (%d) on IS", dx.Cycles, base.Cycles)
	}
	if base.Instructions <= dx.Instructions {
		t.Fatalf("instruction reduction missing: base=%v dx=%v", base.Instructions, dx.Instructions)
	}
}

func TestRunRangeWorkload(t *testing.T) {
	base := runVerified(t, "PR", 1, Default(Baseline))
	dx := runVerified(t, "PR", 1, Default(DX))
	t.Logf("PR: baseline=%d dx=%d", base.Cycles, dx.Cycles)
	if dx.Cycles >= base.Cycles {
		t.Fatalf("DX100 (%d) not faster than baseline (%d) on PR", dx.Cycles, base.Cycles)
	}
}

func TestRunConsumeWorkload(t *testing.T) {
	runVerified(t, "CG", 1, Default(DX))
}

func TestRunMultiKernel(t *testing.T) {
	runVerified(t, "PRH", 1, Default(Baseline))
	runVerified(t, "PRH", 1, Default(DX))
	runVerified(t, "PRO", 1, Default(DX))
}

func TestRunTwoInstances(t *testing.T) {
	cfg := Scale8(2)
	runVerified(t, "GZZ", 1, cfg)
}

// TestOnPhaseLifecycle pins the phase feed that perfbench's set-up/run
// split and dx100d's phase spans read: every run reports one "warmup"
// begin/end pair first, also when nothing warms, and a sampled run
// follows it with balanced, strictly nested "sample.detail" and
// "sample.functional" pairs.
func TestOnPhaseLifecycle(t *testing.T) {
	type phaseEvent struct {
		name  string
		begin bool
	}
	record := func(cfg SystemConfig, scfg *SamplingConfig) []phaseEvent {
		t.Helper()
		var evs []phaseEvent
		_, err := RunInstanceOpts(workloads.Registry["GZZ"](1), cfg, RunOptions{
			Sampling: scfg,
			OnPhase:  func(name string, begin bool) { evs = append(evs, phaseEvent{name, begin}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	warmup := []phaseEvent{{"warmup", true}, {"warmup", false}}
	cfg := Default(Baseline)
	if got := record(cfg, nil); !reflect.DeepEqual(got, warmup) {
		t.Errorf("plain run phases = %v, want %v", got, warmup)
	}
	warm := cfg
	warm.WarmLLC = true
	if got := record(warm, nil); !reflect.DeepEqual(got, warmup) {
		t.Errorf("WarmLLC run phases = %v, want %v", got, warmup)
	}
	got := record(cfg, &SamplingConfig{Interval: 10_000, Detail: 5_000, Warmup: 1_000})
	if len(got) < 2 || !reflect.DeepEqual(got[:2], warmup) {
		t.Fatalf("sampled run phases start %v, want %v", got, warmup)
	}
	var open []string
	begun := map[string]int{}
	for i, e := range got[2:] {
		if e.name != "sample.detail" && e.name != "sample.functional" {
			t.Fatalf("event %d: unexpected phase %q after the warm-up", i+2, e.name)
		}
		if e.begin {
			open = append(open, e.name)
			begun[e.name]++
			continue
		}
		if n := len(open); n == 0 || open[n-1] != e.name {
			t.Fatalf("event %d: %q ends while %v is open", i+2, e.name, open)
		}
		open = open[:len(open)-1]
	}
	if len(open) != 0 {
		t.Fatalf("phases %v never end", open)
	}
	if begun["sample.detail"] == 0 || begun["sample.functional"] == 0 {
		t.Fatalf("sampled run reported %v, want both detailed and functional phases", begun)
	}
}
