package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dx100/internal/sim"
	"dx100/internal/workloads"
)

func TestSpecHashDeterministicAndSensitive(t *testing.T) {
	a := Spec{Workload: "micro.gather", Scale: 1, Config: Default(DX)}
	b := Spec{Workload: "micro.gather", Scale: 1, Config: Default(DX)}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("identical specs hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 || strings.ToLower(ha) != ha {
		t.Fatalf("hash %q is not lowercase hex sha256", ha)
	}
	// Any semantic difference must move the address.
	mut := []Spec{
		{Workload: "micro.rmw", Scale: 1, Config: Default(DX)},
		{Workload: "micro.gather", Scale: 2, Config: Default(DX)},
		{Workload: "micro.gather", Scale: 1, Config: Default(Baseline)},
	}
	tile := Default(DX)
	tile.Accel.Machine.TileElems = 1024
	mut = append(mut, Spec{Workload: "micro.gather", Scale: 1, Config: tile})
	for _, m := range mut {
		hm, err := m.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hm == ha {
			t.Fatalf("spec %+v collides with the base spec", m)
		}
	}
}

func TestSpecCanonicalModeByName(t *testing.T) {
	b, err := Spec{Workload: "IS", Scale: 1, Config: Default(DX)}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"mode":"dx100"`)) {
		t.Fatalf("canonical form does not carry the mode by name: %s", b[:120])
	}
	// The name is the only form a mode decodes from.
	var m Mode
	if err := json.Unmarshal([]byte(`"dmp"`), &m); err != nil || m != DMP {
		t.Fatalf(`"dmp" decoded to %v, %v; want DMP`, m, err)
	}
	if err := json.Unmarshal([]byte(`2`), &m); err == nil {
		t.Fatalf("mode 2 decoded to %v, want it refused", m)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	st := sim.NewStats()
	st.Counter("dram.reads").Add(1000)
	st.Counter("core0.instructions").Add(250.5)
	r := Result{
		Workload: "micro.gather", Mode: DX, Cycles: 12345,
		Instructions: 250.5, BWUtil: 0.82, RBH: 0.5, Occupancy: 0.25,
		MPKI: 1.25, Stats: st,
	}
	b1, err := ResultJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ResultJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n%s\n---\n%s", b1, b2)
	}
	if back.Mode != DX || back.Cycles != 12345 || back.Stats.Get("dram.reads") != 1000 {
		t.Fatalf("decoded result lost fields: %+v", back)
	}
}

// TestRunOptsResultNeutral pins that installing the cooperative hook
// (context + progress) does not perturb the simulation: the wire-form
// Result is byte-identical with and without options.
func TestRunOptsResultNeutral(t *testing.T) {
	var samples []ProgressSample
	hooked, err := RunInstanceOpts(workloads.MicroGather(false, 1), Default(Baseline), RunOptions{
		Context:       context.Background(),
		Progress:      func(p ProgressSample) { samples = append(samples, p) },
		ProgressEvery: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "hooked run", ref(t, plain("micro.gather", Baseline)).wire, wireOf(t, hooked))
	if len(samples) == 0 {
		t.Fatal("no progress samples over a >100k-cycle run at 10k cadence")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycles <= samples[i-1].Cycles {
			t.Fatalf("progress cycles not increasing: %v", samples)
		}
	}
	if last := samples[len(samples)-1]; last.Instructions <= 0 {
		t.Fatalf("final sample carries no instruction count: %+v", last)
	}
}

func TestRunOptsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: abort at the first check
	cfg := Default(Baseline)
	_, err := RunOpts("micro.gather", 1, cfg, RunOptions{Context: ctx, ProgressEvery: 1000})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

func TestRunnerOnRunAndWorkers(t *testing.T) {
	r := Runner{}
	var calls []int
	var total int
	r.OnRun = func(done, tot int) { calls = append(calls, done); total = tot }
	r.Workers = 1 // serial so the callback order is deterministic
	specs := make([]runSpec, 0, 2)
	for i := 0; i < 2; i++ {
		sp, err := namedSpec("micro.gather", 1, Default(Baseline))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	res, err := r.runAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Cycles == 0 {
		t.Fatalf("bad results: %+v", res)
	}
	if total != 2 || len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Fatalf("OnRun calls = %v (total %d), want [1 2] of 2", calls, total)
	}
	// The two runs were identical specs: identical results.
	if res[0].Cycles != res[1].Cycles {
		t.Fatalf("identical specs produced different cycles: %d vs %d", res[0].Cycles, res[1].Cycles)
	}
}
