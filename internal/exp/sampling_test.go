package exp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"dx100/internal/workloads"
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

// TestSampledDXStaysExact pins a GZZ run on DX100 that ends inside its
// first detail window: no functional phase runs, so its estimate is the
// full run's cycle count. It says nothing of a DX run that outlives its
// first window; TestSampledDigests pins those bytes, and they are not
// exact (EXPERIMENTS.md, "Sampled simulation").
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

// sampledPin is the sampling every sampledDigests cell runs under.
var sampledPin = &SamplingConfig{Interval: 10_000, Detail: 5_000, Warmup: 1_000}

// sampledDigests pins the SHA-256 of the ResultJSON of sampled runs
// that pass through functional phases in every mode: the DMP's and the
// stride prefetchers' training, the cores' window drain and stream
// interpretation, and the accelerators' functional execution. The table
// was recorded before the functional paths were folded into the
// decisions of their timed twins, so any change to what a functional
// phase does fails here. windows is the number of detail windows each
// run takes.
var sampledDigests = []struct {
	name    string
	scale   int
	mode    Mode
	windows int
	digest  string
}{
	{"CG", 1, DMP, 10, "9d966947235d07e4f47b32a81a18ef3867c27ea6d253112b39b51b89aebc300e"},
	{"BFS", 1, DMP, 10, "a9f433795804efaf85c1049e299a8e29c56650448fc9b6c51a3965a28f53509a"},
	{"graph.pr.pull", 1, DMP, 16, "634679b92ec7b07641f53ab00638db02647a421d110b798b37b8d194f55354ff"},
	{"graph.pr.pull", 1, DX, 6, "fcccd2b867cb3d98981eae627d1f12c193cbfeb5b03be6b4380695d7a922fcb7"},
	{"graph.bfs.pull", 1, DX, 7, "f8f2e72d77c9121af80105cda048ec0a745e9fc3870d2c6994b44aaef2bf634a"},
	{"GZZ", 2, Baseline, 12, "ba0e5cf6ba16bdd1b5a7d582d230ce1ff06c7a4aa594538ff4441377fefdf695"},
}

// TestSampledDigests checks each sampled cell's wire form against
// sampledDigests, and its final memory against the loopir interpreter.
func TestSampledDigests(t *testing.T) {
	for _, d := range sampledDigests {
		d := d
		c := cell{name: d.name, scale: d.scale, cfg: Default(d.mode), sampling: sampledPin}
		t.Run(fmt.Sprintf("%s/%s/s%d", d.name, d.mode, d.scale), func(t *testing.T) {
			t.Parallel()
			r := ref(t, c)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.wire))); got != d.digest {
				t.Errorf("ResultJSON digest %s, want %s", got, d.digest)
			}
			if st := r.result(t).Sampling; st == nil || st.Windows != d.windows {
				t.Errorf("sampling %+v, want %d windows", st, d.windows)
			}
			if memDigest(expected(t, workloads.Registry[d.name](d.scale))) != r.mem {
				t.Error("final memory differs from the interpreter's")
			}
		})
	}
}
