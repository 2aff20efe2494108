package exp

import (
	"math"
	"strings"
	"testing"
)

// TestSampledWithinCI is the sampler's accuracy contract on real
// workloads (an indirect gather and a scatter kernel): the full-detail
// per-core IPC must fall inside the sampled run's own 95% confidence
// interval, the cycle estimate must land near the true count, and
// every instruction must retire exactly once (detailed or functional).
// The simulator is deterministic, so these are exact regression pins,
// not flaky statistics.
func TestSampledWithinCI(t *testing.T) {
	for _, name := range []string{"GZZ", "XRAGE"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := cell{name: name, scale: 2, cfg: Default(Baseline)}
			full := ref(t, c).result(t)
			c.sampling = &SamplingConfig{Interval: 10_000, Detail: 5_000, Warmup: 1_000}
			sampled := ref(t, c).result(t)
			st := sampled.Sampling
			if st == nil {
				t.Fatal("sampled run carries no SamplingStats")
			}
			if st.Windows < 5 {
				t.Fatalf("only %d windows — too few for a confidence interval", st.Windows)
			}
			if st.IPC.N != st.Windows || st.IPC.Half <= 0 {
				t.Errorf("IPC CI = %+v, want N=%d and a positive half-width", st.IPC, st.Windows)
			}
			if sampled.Instructions != full.Instructions {
				t.Errorf("sampled run retired %v instructions, full run %v — functional phase lost ops",
					sampled.Instructions, full.Instructions)
			}
			if st.FunctionalInstructions <= 0 || st.FunctionalInstructions >= full.Instructions {
				t.Errorf("functional instructions = %v, want in (0, %v)", st.FunctionalInstructions, full.Instructions)
			}
			fullIPC := full.Instructions / (float64(full.Cycles) * float64(c.cfg.Cores))
			if d := math.Abs(fullIPC - st.IPC.Mean); d > st.IPC.Half {
				t.Errorf("full-detail IPC %.6f outside sampled CI %.6f ± %.6f", fullIPC, st.IPC.Mean, st.IPC.Half)
			}
			if relErr := math.Abs(float64(st.EstimatedCycles)-float64(full.Cycles)) / float64(full.Cycles); relErr > 0.15 {
				t.Errorf("estimated cycles %d vs true %d: %.1f%% error", st.EstimatedCycles, full.Cycles, 100*relErr)
			}
			if sampled.Cycles != st.EstimatedCycles {
				t.Errorf("Result.Cycles = %d, want the estimate %d", sampled.Cycles, st.EstimatedCycles)
			}
			// The point of sampling: most cycles were skipped.
			if st.DetailedCycles*4 > full.Cycles {
				t.Errorf("detailed cycles %d are more than a quarter of the full run %d", st.DetailedCycles, full.Cycles)
			}
		})
	}
}

// TestSampledDXStaysExact pins the documented DX-mode behavior: with
// the work offloaded, accelerator timing cannot be skipped, so a
// sampled DX run stays (almost entirely) detailed and its estimate
// matches the full run.
func TestSampledDXStaysExact(t *testing.T) {
	c := plain("GZZ", DX)
	full := ref(t, c).result(t)
	c.sampling = &SamplingConfig{Interval: 10_000, Detail: 5_000}
	sampled := ref(t, c).result(t)
	if sampled.Sampling == nil {
		t.Fatal("sampled run carries no SamplingStats")
	}
	if relErr := math.Abs(float64(sampled.Cycles)-float64(full.Cycles)) / float64(full.Cycles); relErr > 0.01 {
		t.Errorf("sampled DX estimate %d vs full %d: %.2f%% error, want < 1%%",
			sampled.Cycles, full.Cycles, 100*relErr)
	}
}

func TestSamplingConfigDefaults(t *testing.T) {
	got := SamplingConfig{}.withDefaults()
	if got.Interval != 200_000 || got.Detail != 20_000 || got.Warmup != 0 {
		t.Errorf("zero config resolved to %+v", got)
	}
	got = SamplingConfig{Interval: 5, Detail: 6, Warmup: 7}.withDefaults()
	if got.Interval != 5 || got.Detail != 6 || got.Warmup != 7 {
		t.Errorf("explicit config resolved to %+v", got)
	}
}

// TestSpecSamplingHash pins the content-address rules: a sampled Spec
// hashes differently from the same full-detail Spec (a sampled
// estimate must never be served for an exact request), while a Spec
// without sampling keeps the pre-sampling wire form byte-for-byte.
func TestSpecSamplingHash(t *testing.T) {
	plain := Spec{Workload: "GZZ", Scale: 2, Config: Default(Baseline)}
	sampledSpec := plain
	sampledSpec.Sampling = &SamplingConfig{Interval: 10_000, Detail: 5_000}
	h1, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sampledSpec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("sampled and full-detail specs share a content address")
	}
	b, err := plain.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "sampling") {
		t.Errorf("nil Sampling leaked into the canonical form: %s", b)
	}
	// An unset knob and its default are one experiment.
	unset, defaults := plain, plain
	unset.Sampling = &SamplingConfig{Interval: 0}
	defaults.Sampling = &SamplingConfig{Interval: 200_000, Detail: 20_000}
	h3, err := unset.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h4, err := defaults.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h4 {
		t.Errorf("default sampling knobs hash apart from unset ones: %s vs %s", h3, h4)
	}
}
