package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dx100/internal/workloads"
)

// Every (workload, mode, scale) run assembles a fully self-contained
// system — its own engine, statistics registry, DRAM channels and
// caches — and every workload builder seeds its own RNG, so
// independent runs share no mutable state and can execute on separate
// goroutines. The experiment drivers fan their runs out over a bounded
// worker pool and reassemble results in submission order, which keeps
// every figure byte-identical to a serial run (proved by
// TestMainEvaluationSerialParallelIdentical, and cell by cell by the
// TestShardEquivalence sweeps).
//
// Execution policy is carried by a Runner value, not package globals,
// so concurrent callers — two dx100d requests, two tests — cannot race
// each other's worker counts or stepping modes. Callers (the CLI
// included) construct a Runner with the policy they want; there are no
// package-level defaults.

// Runner carries per-call execution policy for the experiment drivers.
// The zero value is ready to use: one worker per CPU, fast-forward on,
// no cancellation. Runner values are cheap to copy; methods do not
// mutate the receiver.
type Runner struct {
	// Workers bounds how many simulator runs execute concurrently;
	// <= 0 selects one worker per available CPU.
	Workers int
	// NoFastForward forces exact cycle-by-cycle stepping in every
	// config the figure drivers build through this Runner. Results are
	// identical either way.
	NoFastForward bool
	// Context, when non-nil, cooperatively cancels in-flight runs: the
	// engine loop polls it and aborts with the context's error.
	Context context.Context
	// OnRun, when non-nil, is called after each successful run with
	// the number of completed runs so far and the batch total. It may
	// be called from multiple worker goroutines; implementations must
	// be safe for concurrent use.
	OnRun func(done, total int)
}

// Config returns the Table 3 default for the mode with this Runner's
// stepping policy applied.
func (r Runner) Config(mode Mode) SystemConfig {
	return r.apply(Default(mode))
}

// apply overlays the Runner's stepping policy on an existing config.
func (r Runner) apply(cfg SystemConfig) SystemConfig {
	cfg.NoFastForward = cfg.NoFastForward || r.NoFastForward
	return cfg
}

// workers resolves the effective worker count.
func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n) on a bounded worker pool
// and waits for completion. Workers claim indices from a shared
// counter, so scheduling order is nondeterministic — callers must make
// each fn(i) write only to its own pre-allocated slot, which is what
// restores deterministic assembly. The lowest-index error is returned;
// after any failure no new indices are claimed.
func (r Runner) forEach(n int, fn func(i int) error) error {
	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   int64 = -1
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSpec is one simulator run awaiting dispatch: a factory producing
// a fresh workload instance (generation happens on the worker, inside
// the run's own goroutine) and the system configuration to run it on.
type runSpec struct {
	inst func() *workloads.Instance
	cfg  SystemConfig
	// sampling, when non-nil, runs this spec under interval sampling
	// (the skew sweep samples its long baseline runs; nil everywhere
	// else keeps every existing figure byte-identical).
	sampling *SamplingConfig
}

// namedSpec builds a runSpec for a registered workload.
func namedSpec(name string, scale int, cfg SystemConfig) (runSpec, error) {
	b, ok := workloads.Registry[name]
	if !ok {
		return runSpec{}, fmt.Errorf("exp: unknown workload %q", name)
	}
	return runSpec{inst: func() *workloads.Instance { return b(scale) }, cfg: cfg}, nil
}

// runAll executes the specs on the worker pool and returns their
// results in spec order.
func (r Runner) runAll(specs []runSpec) ([]Result, error) {
	out := make([]Result, len(specs))
	var completed atomic.Int64
	opts := RunOptions{Context: r.Context}
	err := r.forEach(len(specs), func(i int) error {
		o := opts
		o.Sampling = specs[i].sampling
		res, err := RunInstanceOpts(specs[i].inst(), specs[i].cfg, o)
		if err != nil {
			return err
		}
		out[i] = res
		if r.OnRun != nil {
			r.OnRun(int(completed.Add(1)), len(specs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
