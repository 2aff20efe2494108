package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dx100/internal/sample/ckpt"
	"dx100/internal/workloads"
)

// runJSON builds a fresh workload instance and runs it, returning the
// Result wire form — the byte-identity currency of these tests.
func runJSON(t *testing.T, name string, scale int, cfg SystemConfig, opts RunOptions) []byte {
	t.Helper()
	inst := workloads.Registry[name](scale)
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

// TestCheckpointRestoreIdentity pins the subsystem's central contract:
// restoring a post-warm-up checkpoint into a freshly built identical
// system and running is byte-identical to the uninterrupted run — for
// every mode, for both a uniform-index workload and the skewed graph
// generator. Writing the checkpoint must also not perturb the run that
// wrote it.
func TestCheckpointRestoreIdentity(t *testing.T) {
	for _, name := range []string{"GZZ", "graph.pr.push"} {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			name, mode := name, mode
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				cfg := Default(mode)
				cfg.WarmLLC = true
				file := filepath.Join(t.TempDir(), "warm.ckpt")
				plain := runJSON(t, name, 1, cfg, RunOptions{})
				if saved := runJSON(t, name, 1, cfg, RunOptions{CheckpointTo: file}); !bytes.Equal(plain, saved) {
					t.Errorf("writing a checkpoint perturbed the run:\n%s\nvs\n%s", plain, saved)
				}
				if restored := runJSON(t, name, 1, cfg, RunOptions{RestoreFrom: file}); !bytes.Equal(plain, restored) {
					t.Errorf("restored run diverges from uninterrupted run:\n%s\nvs\n%s", plain, restored)
				}
			})
		}
	}
}

// TestWarmStoreReuse pins the content-addressed warm-up cache: the
// first run of a sweep deposits one checkpoint, later runs with the
// same warm-up spec restore it, and restoring is indistinguishable
// from re-warming.
func TestWarmStoreReuse(t *testing.T) {
	cfg := Default(Baseline)
	cfg.WarmLLC = true
	store := ckpt.NewStore("")
	first := runJSON(t, "GZZ", 1, cfg, RunOptions{WarmStore: store})
	if store.Len() != 1 {
		t.Fatalf("store holds %d checkpoints after the first run, want 1", store.Len())
	}
	second := runJSON(t, "GZZ", 1, cfg, RunOptions{WarmStore: store})
	if store.Len() != 1 {
		t.Fatalf("store holds %d checkpoints after the second run, want 1 (key not stable?)", store.Len())
	}
	if !bytes.Equal(first, second) {
		t.Error("restored-warm-up run diverges from fresh-warm-up run")
	}
	if plain := runJSON(t, "GZZ", 1, cfg, RunOptions{}); !bytes.Equal(first, plain) {
		t.Error("warm-store run diverges from storeless run")
	}
	// A different system warms different state: the key must separate it.
	dx := Default(DX)
	dx.WarmLLC = true
	runJSON(t, "GZZ", 1, dx, RunOptions{WarmStore: store})
	if store.Len() != 2 {
		t.Errorf("store holds %d checkpoints after a DX run, want 2", store.Len())
	}
}

// TestCheckpointRestoreMismatch pins the layout guard: a checkpoint
// restored into the wrong system or workload fails with a readable
// description of what it was taken for, before any component section
// loads. Corrupt framing is likewise rejected up front.
func TestCheckpointRestoreMismatch(t *testing.T) {
	cfg := Default(Baseline)
	cfg.WarmLLC = true
	file := filepath.Join(t.TempDir(), "warm.ckpt")
	if _, err := RunInstanceOpts(workloads.Registry["GZZ"](1), cfg, RunOptions{CheckpointTo: file}); err != nil {
		t.Fatal(err)
	}
	wrongMode := Default(DX)
	wrongMode.WarmLLC = true
	if _, err := RunInstanceOpts(workloads.Registry["GZZ"](1), wrongMode, RunOptions{RestoreFrom: file}); err == nil || !strings.Contains(err.Error(), "checkpoint is for") {
		t.Errorf("restore into a DX system: err = %v, want layout mismatch", err)
	}
	if _, err := RunInstanceOpts(workloads.Registry["IS"](1), cfg, RunOptions{RestoreFrom: file}); err == nil || !strings.Contains(err.Error(), "checkpoint is for") {
		t.Errorf("restore into an IS run: err = %v, want layout mismatch", err)
	}
	if err := os.WriteFile(file, []byte("DXCK\x00\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunInstanceOpts(workloads.Registry["GZZ"](1), cfg, RunOptions{RestoreFrom: file}); err == nil {
		t.Error("restore of a corrupt checkpoint succeeded")
	}
}
