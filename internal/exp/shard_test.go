package exp

import (
	"fmt"
	"runtime"
	"testing"

	"dx100/internal/workloads"
)

// The across-run pool (Runner.Workers, the CLIs' -jobs flag) is how the
// simulator uses more than one core: a batch of runs is sharded across
// the pool's workers, each run on its own engine, statistics registry,
// channels and caches. Sharding must be invisible. Every cell of a
// pooled batch is byte-identical — every statistic, every derived rate,
// the exact wire JSON — to the same cell run one at a time, for every
// workload, mode and stepping strategy. TestMainEvaluationSerialParallelIdentical
// pins this for the assembled figures; these tests pin it cell by cell.

// checkShardEquivalence runs cells as one batch sharded across workers
// pool workers, and compares each with its reference, simulated alone,
// in its own subtest.
func checkShardEquivalence(t *testing.T, cells []cell, workers int, label func(cell) string) {
	t.Helper()
	alone := make([]string, len(cells))
	for i, c := range cells {
		alone[i] = ref(t, c).String()
	}
	pooled := make([]Result, len(cells))
	err := Runner{Workers: workers}.forEach(len(cells), func(i int) (err error) {
		c := cells[i]
		pooled[i], err = RunOpts(c.name, c.scale, c.cfg, RunOptions{NoFastForward: c.noFF})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		t.Run(label(c), func(t *testing.T) {
			requireSame(t, fmt.Sprintf("sharded across %d workers", workers), alone[i], resultKey(pooled[i])+wireOf(t, pooled[i]))
		})
	}
}

// TestShardEquivalenceMatrix is the deep matrix: the determinism
// workloads × all three measured systems × fast-forward on/off, sharded
// across four workers.
func TestShardEquivalenceMatrix(t *testing.T) {
	var cells []cell
	for _, name := range detNames {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			cells = append(cells, plain(name, mode))
			if !raceDetectorEnabled { // exact stepping adds no interleavings; trimmed under -race (see norace_test.go)
				cells = append(cells, exact(plain(name, mode)))
			}
		}
	}
	checkShardEquivalence(t, cells, 4, cell.String)
}

// TestShardEquivalenceWideFanout pins byte-identity with the pool's
// workers genuinely running in parallel. forEach starts the workers it
// is asked for, but under GOMAXPROCS=1 they take turns on one thread;
// raising GOMAXPROCS to 4 for the duration makes the runs overlap on
// any host. It must not call t.Parallel(): GOMAXPROCS is
// process-global, and the sequential phase of the package run is the
// only safe place to flip it.
func TestShardEquivalenceWideFanout(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var cells []cell
	for _, name := range []string{"GZZ", "IS"} {
		for _, mode := range []Mode{Baseline, DMP} {
			cells = append(cells, plain(name, mode))
		}
	}
	checkShardEquivalence(t, cells, 4, nameMode)
}

// TestShardEquivalenceAllWorkloads sweeps every registered workload in
// every mode, sharded across an odd worker count (the batch does not
// divide evenly) — the breadth pass complementing the deep matrix.
func TestShardEquivalenceAllWorkloads(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("breadth sweep checks byte-identity, not interleavings; trimmed under -race (see norace_test.go)")
	}
	var cells []cell
	for _, name := range workloads.Order {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			cells = append(cells, plain(name, mode))
		}
	}
	checkShardEquivalence(t, cells, 3, nameMode)
}

// nameMode labels a fast-forwarded cell's subtest.
func nameMode(c cell) string { return c.name + "/" + c.cfg.Mode.String() }
