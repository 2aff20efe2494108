package exp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"dx100/internal/cache"
	"dx100/internal/cpu"
	"dx100/internal/memspace"
	"dx100/internal/sim"
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

func TestSummarize(t *testing.T) {
	if ci := summarize(nil); ci != (CI{}) {
		t.Errorf("summarize(nil) = %+v, want zero", ci)
	}
	if ci := summarize([]float64{2.5}); ci.Mean != 2.5 || ci.Half != 0 || ci.N != 1 {
		t.Errorf("summarize(one) = %+v, want mean=2.5 half=0 n=1", ci)
	}
	// Known sample: mean 3, sd 1, n 5 → half = 1.96/√5.
	ci := summarize([]float64{2, 2, 3, 4, 4})
	if ci.N != 5 || math.Abs(ci.Mean-3) > 1e-15 {
		t.Fatalf("summarize = %+v, want mean=3 n=5", ci)
	}
	want := 1.96 * 1 / math.Sqrt(5)
	if math.Abs(ci.Half-want) > 1e-12 {
		t.Errorf("half = %v, want %v", ci.Half, want)
	}
	// Identical samples give a zero-width interval.
	if ci := summarize([]float64{7, 7, 7}); ci.Half != 0 || ci.Mean != 7 {
		t.Errorf("summarize(const) = %+v, want mean=7 half=0", ci)
	}
}

// fixedMem is a core-side Level with a fixed timed latency and a
// counting functional path.
type fixedMem struct {
	eng     *sim.Engine
	touches int
}

func (m *fixedMem) Access(_ sim.Cycle, _ memspace.PAddr, _ cache.Kind, onDone func(sim.Cycle)) bool {
	if onDone != nil {
		m.eng.After(30, onDone)
	}
	return true
}

func (m *fixedMem) Touch(memspace.PAddr, cache.Kind) { m.touches++ }

// stubMachine builds one core per stream over a shared fixedMem.
func stubMachine(streams ...[]cpu.MicroOp) (*sim.Engine, []*cpu.Core, *fixedMem, *sim.Stats) {
	eng := sim.NewEngine()
	eng.MaxCycles = 1_000_000
	st := sim.NewStats()
	mem := &fixedMem{eng: eng}
	var cores []*cpu.Core
	for i, ops := range streams {
		c := cpu.NewCore(eng, cpu.SkylakeLike(), mem, func(v memspace.VAddr) memspace.PAddr { return memspace.PAddr(v) },
			st, fmt.Sprintf("core%d.", i))
		c.Run(&cpu.SliceStream{Ops: ops})
		cores = append(cores, c)
	}
	return eng, cores, mem, st
}

// handOver pauses the cores and runs the engine to the quiescent
// handoff point, as runSampled does before functionalPhase.
func handOver(t *testing.T, eng *sim.Engine, cores []*cpu.Core) {
	t.Helper()
	for _, c := range cores {
		c.Pause()
	}
	if _, err := eng.Run(func() bool {
		if eng.EventsPending() {
			return false
		}
		for _, c := range cores {
			if !c.Quiesced() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func loadStream(n int) []cpu.MicroOp {
	ops := make([]cpu.MicroOp, n)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = cpu.MicroOp{Kind: cpu.Load, Addr: memspace.VAddr(i * memspace.LineSize)}
		} else {
			ops[i] = cpu.MicroOp{Kind: cpu.ALU, Dep1: 1, Weight: 2}
		}
	}
	return ops
}

func noDrain() bool { return false }

// TestFunctionalPhaseAlternates: detailed windows and quota-bounded
// functional phases alternate to completion, and the cores retire
// every instruction of their streams exactly once.
func TestFunctionalPhaseAlternates(t *testing.T) {
	const n, quota = 8000, 1000
	eng, cores, mem, st := stubMachine(loadStream(n), loadStream(n))
	done := func() bool { return cores[0].Done() && cores[1].Done() }
	want := float64(n/2*1 + n/2*2)
	phases := 0
	for !done() {
		if _, err := eng.RunUntil(eng.Now()+100, done); err != nil {
			t.Fatal(err)
		}
		if done() {
			break
		}
		handOver(t, eng, cores)
		if done() {
			break
		}
		executed, allDone := functionalPhase(cores, quota, eng.Now(), noDrain)
		// A core stops at its quota, or short of it at its stream's end;
		// an ALU op of weight 2 can overshoot the quota by one.
		if executed > 2*(quota+1) || (!allDone && executed < 2*quota) {
			t.Fatalf("phase %d executed %d weight, want %d per core", phases, executed, quota)
		}
		for _, c := range cores {
			c.Resume()
		}
		phases++
		if allDone {
			break
		}
	}
	if phases < 2 {
		t.Fatalf("%d functional phases, want several", phases)
	}
	for i := range cores {
		got := st.Get(fmt.Sprintf("core%d.instructions", i))
		if got != want {
			t.Errorf("core %d retired %v instructions, want %v", i, got, want)
		}
	}
	if mem.touches == 0 {
		t.Fatal("functional phases never touched memory")
	}
}

// TestFunctionalPhaseDrainUnblocksParkedBarrier: a barrier parked at
// the head of the window when detail hands over is released by the
// accelerator drain hook, and the phase runs the stream to the end.
func TestFunctionalPhaseDrainUnblocksParkedBarrier(t *testing.T) {
	released := false
	ops := append([]cpu.MicroOp{{Kind: cpu.Barrier, Ready: func() bool { return released }}}, loadStream(100)...)
	eng, cores, _, _ := stubMachine(ops)
	drains := 0
	drain := func() bool {
		drains++
		released = true
		return true
	}
	if _, err := eng.RunUntil(100, nil); err != nil {
		t.Fatal(err)
	}
	handOver(t, eng, cores)
	if cores[0].Drained() {
		t.Fatal("setup: the barrier did not park the window")
	}
	if _, allDone := functionalPhase(cores, 1<<20, eng.Now(), drain); !allDone || drains != 1 {
		t.Fatalf("allDone %v after %d drains, want true after 1", allDone, drains)
	}
}

// TestFunctionalPhaseBarrierWaitsOnPeer: a barrier met in the stream
// that no drain can satisfy waits until a peer core's functional
// effect releases it within the same phase; with the peer at its quota
// the phase ends with the barrier held for the next one.
func TestFunctionalPhaseBarrierWaitsOnPeer(t *testing.T) {
	released := false
	waiter := append(loadStream(10), cpu.MicroOp{Kind: cpu.Barrier, Ready: func() bool { return released }})
	waiter = append(waiter, loadStream(10)...)
	releaser := append(loadStream(40), cpu.MicroOp{Kind: cpu.Effect, Emit: func(sim.Cycle) { released = true }})
	eng, cores, _, _ := stubMachine(waiter, releaser)

	// The releaser's effect lies past a quota of 20: the waiter blocks
	// and the phase ends short.
	if executed, allDone := functionalPhase(cores, 20, eng.Now(), noDrain); allDone || released || executed >= 40 {
		t.Fatalf("executed %d, allDone %v, released %v; want a short phase with the barrier held", executed, allDone, released)
	}
	if cores[0].Done() {
		t.Fatal("waiter finished past an unreleased barrier")
	}
	// The next phase reaches the effect, and the waiter resumes
	// behind it in the same phase.
	if _, allDone := functionalPhase(cores, 1<<20, eng.Now(), noDrain); !allDone || !released {
		t.Fatalf("allDone %v, released %v; want both", allDone, released)
	}
}
