package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dx100/internal/workloads/pattern"
)

// Compiled pattern files are not Registry workloads, so they cannot
// ride the detNames matrices — these instance-based twins give them the
// same byte-identity pins: fast-forward on vs off, and interval
// sampling under both stepping strategies.

// patternFile loads and parses the committed golden pattern file.
func patternFile(t *testing.T) *pattern.File {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "workloads", "pattern", "testdata", "xrage_like.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := pattern.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runPatternJSON compiles a fresh instance of the golden pattern file
// (instances mutate as they run; Compile is deterministic) and returns
// the Result wire form.
func runPatternJSON(t *testing.T, scale int, cfg SystemConfig, opts RunOptions) string {
	t.Helper()
	inst, err := pattern.Compile(patternFile(t), scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInstanceOpts(inst, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wireOf(t, res)
}

// TestPatternFastForwardEquivalence: a compiled-pattern run with
// fast-forward is byte-identical to the same run stepped cycle by
// cycle, in every mode.
func TestPatternFastForwardEquivalence(t *testing.T) {
	for _, mode := range []Mode{Baseline, DMP, DX} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			t.Parallel()
			cfg := Default(mode)
			requireSame(t, "run with fast-forward off", runPatternJSON(t, 1, cfg, RunOptions{}),
				runPatternJSON(t, 1, cfg, RunOptions{NoFastForward: true}))
		})
	}
}

// TestSampledFastForwardEquivalence: interval sampling composes with
// fast-forward — a sampled run is byte-identical with fast-forward on
// and off — for both new workload families (the skewed graph via the
// registry, the compiled pattern via its instance path). The detailed
// windows end at fixed cycle bounds, so this pins Engine.RunUntil's
// clamp: a jump that crossed a window edge would shift every later
// window.
func TestSampledFastForwardEquivalence(t *testing.T) {
	scfg := &SamplingConfig{Interval: 20_000, Detail: 5_000, Warmup: 1_000}
	t.Run("graph.pr.push", func(t *testing.T) {
		t.Parallel()
		c := plain("graph.pr.push", Baseline)
		c.sampling = scfg
		requireSame(t, "sampled run with fast-forward off", ref(t, c).wire, ref(t, exact(c)).wire)
	})
	t.Run("pattern", func(t *testing.T) {
		t.Parallel()
		cfg := Default(Baseline)
		requireSame(t, "sampled run with fast-forward off", runPatternJSON(t, 4, cfg, RunOptions{Sampling: scfg}),
			runPatternJSON(t, 4, cfg, RunOptions{Sampling: scfg, NoFastForward: true}))
	})
}

// TestWarmLLCIgnoresRegionNames: the All-Hit warm-up knows the
// scratchpads by address, not by name. Region names carry the
// workload's name, so a pattern file named "spd" must warm and run
// exactly as the same file under another name does, on both systems.
func TestWarmLLCIgnoresRegionNames(t *testing.T) {
	for _, mode := range []Mode{Baseline, DX} {
		cfg := Default(mode)
		cfg.WarmLLC = true
		var wire [2]string
		for i, name := range []string{"abc", "spd"} {
			f := patternFile(t)
			f.Name = name
			inst, err := pattern.Compile(f, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunInstance(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res.Workload = ""
			wire[i] = wireOf(t, res)
		}
		requireSame(t, mode.String()+" warmed run of the file named \"spd\"", wire[0], wire[1])
	}
}
