package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"dx100/internal/exp"
	"dx100/internal/loopir"
	"dx100/internal/obs/prof"
	"dx100/internal/sim"
	"dx100/internal/workloads"
)

// simRun is one timed simulation of a simulation workload.
type simRun struct {
	Case string
	// Host times: Gen is dataset generation, Construct is system
	// construction (call to the start of the warm-up phase), Warmup is
	// the warm-up phase, Run is the rest of the call (simulation and
	// result collection), Engine the part of Run until the engine
	// stopped. Run is what wall_s sums; Gen+Construct+Warmup is set-up.
	Gen, Construct, Warmup, Run, Engine time.Duration
	// Detail and Functional sum the sampled run's phases.
	Detail, Functional time.Duration
	Encode, Hash       time.Duration

	Res          exp.Result
	Digest       string // SHA-256 of the Result's wire form
	EngineCycles uint64 // engine clock at the end (detailed cycles when sampled)
	FFJumps      uint64
	FFSkipped    uint64
	Rt           rtDelta // traced runs only
}

// simPass is one pass over a workload's cases.
type simPass struct {
	Runs []simRun
}

func (p simPass) setup() time.Duration {
	var d time.Duration
	for _, r := range p.Runs {
		d += r.Gen + r.Construct + r.Warmup
	}
	return d
}

func (p simPass) wall() time.Duration {
	var d time.Duration
	for _, r := range p.Runs {
		d += r.Run
	}
	return d
}

// simBench runs one simulation workload.
type simBench struct {
	workload string
	cases    []simCase
	// expected is each case's reference memory state, computed once
	// from a pristine instance by loopir.Interpret.
	expected map[string]map[string][]uint64
	// digests pins each case's Result bytes across passes and against
	// the traced pass.
	digests map[string]string
	// refCycles is each sampled case's full-detail cycle count.
	refCycles map[string]uint64
	rep       *report
}

// expectedState is the reference the simulated memory must equal after
// a run: every kernel array of a pristine instance, interpreted.
func expectedState(inst *workloads.Instance) (map[string][]uint64, error) {
	state := map[string][]uint64{}
	for _, k := range inst.Kernels {
		for name, info := range k.Arrays {
			if _, ok := state[name]; ok {
				continue
			}
			vals := make([]uint64, info.Len)
			for i := range vals {
				vals[i] = inst.Read(name, i)
			}
			state[name] = vals
		}
	}
	for _, k := range inst.Kernels {
		if err := loopir.Interpret(k, &loopir.Env{Arrays: state, Params: k.Params}); err != nil {
			return nil, fmt.Errorf("interpret %s: %w", inst.Name, err)
		}
	}
	return state, nil
}

// verifyState compares the instance's simulated memory with want.
func verifyState(inst *workloads.Instance, want map[string][]uint64) error {
	for name, vals := range want {
		for i, w := range vals {
			if got := inst.Read(name, i); got != w {
				return fmt.Errorf("%s[%d] = %#x, want %#x", name, i, got, w)
			}
		}
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runCase generates a fresh instance of c, runs it and checks its
// memory against the interpreter. full forces a full-detail run (the
// sampled workload's reference). tr, when non-nil, records spans and
// profiles the run.
func (b *simBench) runCase(c simCase, full bool, tr *tracer) (simRun, error) {
	r := simRun{Case: c.Label}
	op := tr.startOp("sim " + c.Label)
	defer op.End()

	sp := tr.child("workloads.gen", op)
	t0 := time.Now()
	inst := c.Build()
	r.Gen = time.Since(t0)
	sp.End()
	if _, ok := b.expected[c.Label]; !ok {
		st, err := expectedState(inst)
		if err != nil {
			return r, err
		}
		b.expected[c.Label] = st
	}

	runSpan := tr.child("exp.run", op)
	phases := tr.phases(runSpan)
	var tCall, tWarm0, tWarm1, tEngine time.Time
	var phaseStart time.Time
	opts := exp.RunOptions{
		OnPhase: func(name string, begin bool) {
			now := time.Now()
			phases(name, begin)
			switch {
			case name == "warmup" && begin:
				tWarm0 = now
			case name == "warmup":
				tWarm1 = now
			case begin:
				phaseStart = now
			case name == "sample.detail":
				r.Detail += now.Sub(phaseStart)
			case name == "sample.functional":
				r.Functional += now.Sub(phaseStart)
			}
		},
		OnEngineDone: func(e *sim.Engine) {
			tEngine = time.Now()
			r.EngineCycles = uint64(e.Now())
			r.FFJumps, r.FFSkipped = e.FastForwarded()
		},
	}
	if !full {
		opts.Sampling = c.Sampling
	}
	if tr != nil {
		opts.ProfileWindow = prof.DefaultWindow
	}
	rt0 := tr.readRuntime()
	tCall = time.Now()
	res, err := exp.RunInstanceOpts(inst, c.Config, opts)
	tEnd := time.Now()
	r.Rt = tr.readRuntime().sub(rt0)
	runSpan.End()
	if err != nil {
		return r, fmt.Errorf("run %s: %w", c.Label, err)
	}
	r.Construct = tWarm0.Sub(tCall)
	r.Warmup = tWarm1.Sub(tWarm0)
	r.Run = tEnd.Sub(tWarm1)
	r.Engine = tEngine.Sub(tWarm1)

	sp = tr.child("verify", op)
	err = verifyState(inst, b.expected[c.Label])
	sp.End()
	if err != nil {
		return r, fmt.Errorf("%s: simulated memory differs from loopir.Interpret: %w", c.Label, err)
	}
	if res.Cycles == 0 {
		return r, fmt.Errorf("%s: zero cycles", c.Label)
	}

	// The profile travels beside the Result; the digest covers the same
	// bytes an unprofiled run produces.
	r.Res = res
	res.Timeline, res.Stalls = nil, nil
	sp = tr.child("exp.encode", op)
	t0 = time.Now()
	js, err := exp.ResultJSON(res)
	r.Encode = time.Since(t0)
	sp.End()
	if err != nil {
		return r, err
	}
	r.Digest = digest(js)
	sp = tr.child("exp.hash", op)
	t0 = time.Now()
	_, err = c.Spec.Hash()
	r.Hash = time.Since(t0)
	sp.End()
	return r, err
}

// pass runs every case once, checking each digest against earlier
// passes. A failed case is counted and the pass goes on.
func (b *simBench) pass(tr *tracer) simPass {
	var p simPass
	for _, c := range b.cases {
		b.rep.attempted++
		r, err := b.runCase(c, false, tr)
		if err == nil {
			if d, ok := b.digests[c.Label]; ok && d != r.Digest {
				err = fmt.Errorf("%s: Result differs between runs (sha256 %s vs %s)", c.Label, r.Digest[:12], d[:12])
			}
			b.digests[c.Label] = r.Digest
		}
		if err != nil {
			b.rep.fail(err)
			continue
		}
		p.Runs = append(p.Runs, r)
	}
	return p
}

// references runs each sampled case once at full detail, untimed, for
// the accuracy figures.
func (b *simBench) references() {
	b.refCycles = map[string]uint64{}
	for _, c := range b.cases {
		b.rep.attempted++
		r, err := b.runCase(c, true, nil)
		if err != nil {
			b.rep.fail(fmt.Errorf("full-detail reference: %w", err))
			continue
		}
		b.refCycles[c.Label] = uint64(r.Res.Cycles)
	}
}

// minPasses is the fewest passes a run measures, whatever --seconds
// says, so wall_s and setup_s are medians of more than one sample.
const minPasses = 2

func runSim(workload string, seed int64, seconds float64, trace bool, rep *report) error {
	b := &simBench{
		workload: workload,
		cases:    simCases(workload, seed),
		expected: map[string]map[string][]uint64{},
		digests:  map[string]string{},
		rep:      rep,
	}
	var passes []simPass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		passes = append(passes, b.pass(nil))
	}
	if workload == "sampled" {
		b.references()
	}
	var walls, setups []float64
	for i, p := range passes {
		walls = append(walls, p.wall().Seconds())
		setups = append(setups, p.setup().Seconds())
		var ts []string
		for _, r := range p.Runs {
			ts = append(ts, fmt.Sprintf("%s=%.3f", r.Case, r.Run.Seconds()))
		}
		fmt.Printf("pass %d: %s\n", i, strings.Join(ts, " "))
	}
	wall := median(walls)
	var cycles float64
	for _, r := range passes[0].Runs {
		if workload == "sampled" {
			cycles += float64(b.refCycles[r.Case])
		} else {
			cycles += float64(r.Res.Cycles)
		}
	}
	rep.e2e("wall_s", wall, "s", fmt.Sprintf("median of %d passes over %d simulations %.3f", len(passes), len(b.cases), walls))
	rep.e2e("sim_mcps", ratio(cycles, wall)/1e6, "Mcycles/s", simMcpsNote(workload))
	rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	if workload == "sampled" {
		b.reportAccuracy(passes[0], rep)
	}
	if !trace {
		return nil
	}

	tr := newTracer()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.pass(tr)
	pprof.StopCPUProfile()
	shares, err := hostShares(cpu.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		rep.layer("host_share."+k, v, "%")
	}
	rep.layer("trace_overhead_pct", (ratio(traced.wall().Seconds(), wall)-1)*100, "%")
	b.reportLayers(traced, rep)
	return tr.write(rep, workload)
}

func simMcpsNote(workload string) string {
	if workload == "sampled" {
		return "full-detail target cycles covered per host second"
	}
	return "simulated cycles per host second"
}
