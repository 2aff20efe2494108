package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dx100/internal/workloads"
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
func runPatternJSON(t *testing.T, scale int, cfg SystemConfig, opts RunOptions) []byte {
	t.Helper()
	inst, err := pattern.Compile(patternFile(t), scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInstanceOpts(inst, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
			ff := runPatternJSON(t, 1, cfg, RunOptions{})
			if exact := runPatternJSON(t, 1, cfg, RunOptions{NoFastForward: true}); !bytes.Equal(ff, exact) {
				t.Errorf("fast-forward changed the result:\n%s\nvs\n%s", ff, exact)
			}
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
		run := func(noFF bool) []byte {
			res, err := RunInstanceOpts(workloads.Registry["graph.pr.push"](1), Default(Baseline),
				RunOptions{Sampling: scfg, NoFastForward: noFF})
			if err != nil {
				t.Fatal(err)
			}
			out, err := ResultJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if ff, exact := run(false), run(true); !bytes.Equal(ff, exact) {
			t.Errorf("sampled run differs with fast-forward off:\n%s\nvs\n%s", ff, exact)
		}
	})
	t.Run("pattern", func(t *testing.T) {
		t.Parallel()
		cfg := Default(Baseline)
		ff := runPatternJSON(t, 4, cfg, RunOptions{Sampling: scfg})
		if exact := runPatternJSON(t, 4, cfg, RunOptions{Sampling: scfg, NoFastForward: true}); !bytes.Equal(ff, exact) {
			t.Errorf("sampled run differs with fast-forward off:\n%s\nvs\n%s", ff, exact)
		}
	})
}
