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

// shardSpec is one cell of a batch: a registered workload at scale 1
// in one mode and stepping strategy.
type shardSpec struct {
	name string
	mode Mode
	noFF bool
}

// shardCell runs one cell and renders everything observable about it:
// the full-precision result key (all measured fields plus the
// statistics registry) and the wire JSON the daemon would serve.
func shardCell(c shardSpec) (string, error) {
	cfg := Default(c.mode)
	cfg.NoFastForward = c.noFF
	res, err := Run(c.name, 1, cfg)
	if err != nil {
		return "", fmt.Errorf("%s/%s noff=%v: %w", c.name, c.mode, c.noFF, err)
	}
	wire, err := ResultJSON(res)
	if err != nil {
		return "", err
	}
	return resultKey(res) + string(wire), nil
}

// shardBatch renders every cell with the batch sharded across workers
// pool workers; workers == 1 runs the cells one at a time.
func shardBatch(t *testing.T, cells []shardSpec, workers int) []string {
	t.Helper()
	out := make([]string, len(cells))
	err := Runner{Workers: workers}.forEach(len(cells), func(i int) (err error) {
		out[i], err = shardCell(cells[i])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkShardEquivalence runs cells one at a time, then sharded across
// workers pool workers, and compares each cell in its own subtest.
func checkShardEquivalence(t *testing.T, cells []shardSpec, workers int, label func(shardSpec) string) {
	t.Helper()
	alone := shardBatch(t, cells, 1)
	pooled := shardBatch(t, cells, workers)
	for i, c := range cells {
		t.Run(label(c), func(t *testing.T) {
			if alone[i] != pooled[i] {
				t.Errorf("sharded across %d workers diverges from one at a time:\n--- alone ---\n%s\n--- sharded ---\n%s",
					workers, alone[i], pooled[i])
			}
		})
	}
}

// TestShardEquivalenceMatrix is the deep matrix: the determinism
// workloads × all three measured systems × fast-forward on/off, sharded
// across four workers.
func TestShardEquivalenceMatrix(t *testing.T) {
	var cells []shardSpec
	for _, name := range detNames {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			for _, noFF := range []bool{false, true} {
				if noFF && raceDetectorEnabled {
					continue // exact stepping adds no interleavings; trimmed under -race (see norace_test.go)
				}
				cells = append(cells, shardSpec{name, mode, noFF})
			}
		}
	}
	checkShardEquivalence(t, cells, 4, func(c shardSpec) string {
		return fmt.Sprintf("%s/%s/noff=%v", c.name, c.mode, c.noFF)
	})
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
	var cells []shardSpec
	for _, name := range []string{"GZZ", "IS"} {
		for _, mode := range []Mode{Baseline, DMP} {
			cells = append(cells, shardSpec{name, mode, false})
		}
	}
	checkShardEquivalence(t, cells, 4, func(c shardSpec) string {
		return fmt.Sprintf("%s/%s", c.name, c.mode)
	})
}

// TestShardEquivalenceAllWorkloads sweeps every registered workload in
// every mode, sharded across an odd worker count (the batch does not
// divide evenly) — the breadth pass complementing the deep matrix.
func TestShardEquivalenceAllWorkloads(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("breadth sweep checks byte-identity, not interleavings; trimmed under -race (see norace_test.go)")
	}
	var cells []shardSpec
	for _, name := range workloads.Order {
		for _, mode := range []Mode{Baseline, DMP, DX} {
			cells = append(cells, shardSpec{name, mode, false})
		}
	}
	checkShardEquivalence(t, cells, 3, func(c shardSpec) string {
		return fmt.Sprintf("%s/%s", c.name, c.mode)
	})
}
