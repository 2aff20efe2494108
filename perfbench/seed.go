package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"dx100/internal/exp"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

// Everything the program receives is generated here from the
// benchmark's --seed: the skewed graphs' GraphConfig.Seed, the service's
// pattern files and its request sequence. Registry workloads (IS, GZZ,
// PR, XRAGE) keep their built-in datasets, so they read the same under
// every seed.

// subSeed derives an independent non-zero stream seed from the
// benchmark seed, so the graph and the service draw unrelated numbers.
// Zero is avoided because GraphConfig treats Seed 0 as "default".
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	v := int64(h.Sum64() &^ (1 << 63))
	if v == 0 {
		v = 1
	}
	return v
}

// simCase is one simulation of a simulation workload: how to generate
// its instance, the system it runs on, and whether it is sampled.
type simCase struct {
	Label string
	// Point names a sampled case in the sample.err_pct.* metrics.
	Point    string
	Build    func() *workloads.Instance
	Config   exp.SystemConfig
	Sampling *exp.SamplingConfig
	// Spec is the content address of the case where one exists (the
	// registry workloads); graph instances have no wire form, so their
	// Spec names the instance and only serves the hash timing.
	Spec exp.Spec
}

// The sampled workload's operating points: GZZ at the
// BenchmarkSampledRun point, the graph points at the skew sweep's
// default.
var (
	gzzSampling   = exp.SamplingConfig{Interval: 10000, Detail: 8000, Warmup: 2000}
	graphSampling = exp.SamplingConfig{Interval: 50000, Detail: 10000, Warmup: 2000}
)

func registryCase(name string, scale int, mode exp.Mode, s *exp.SamplingConfig) simCase {
	cfg := exp.Default(mode)
	label := fmt.Sprintf("%s.s%d.%s", name, scale, mode)
	return simCase{
		Label:    label,
		Point:    fmt.Sprintf("%s%d.%s", strings.ToLower(name), scale, mode),
		Build:    func() *workloads.Instance { return workloads.Registry[name](scale) },
		Config:   cfg,
		Sampling: s,
		Spec:     exp.Spec{Workload: name, Scale: scale, Config: cfg, Sampling: s},
	}
}

// graphCase is graph PR in the pull direction at the given power-law
// exponent (0 = uniform) on the seeded graph.
func graphCase(seed int64, alpha float64, scale int, mode exp.Mode, s *exp.SamplingConfig) simCase {
	gc := workloads.GraphConfig{
		Kernel: "pr", Dir: "pull",
		Exponent: alpha, Clustering: workloads.DefaultClustering,
		Seed: subSeed(seed, "graph"),
	}
	shape := "uniform"
	if alpha > 0 {
		shape = fmt.Sprintf("a%g", alpha)
	}
	cfg := exp.Default(mode)
	label := fmt.Sprintf("graph.pr.pull.%s.s%d.%s", shape, scale, mode)
	return simCase{
		Label:    label,
		Point:    fmt.Sprintf("%s.pull.%s", shape, mode),
		Build:    func() *workloads.Instance { return workloads.BuildGraph(gc, scale) },
		Config:   cfg,
		Sampling: s,
		Spec:     exp.Spec{Workload: label, Scale: scale, Config: cfg, Sampling: s},
	}
}

// simCases lists the simulations one pass of a simulation workload
// runs, in order.
func simCases(workload string, seed int64) []simCase {
	switch workload {
	case "cores", "accel":
		mode := exp.Baseline
		if workload == "accel" {
			mode = exp.DX
		}
		var cs []simCase
		for _, name := range []string{"IS", "GZZ", "PR", "XRAGE"} {
			cs = append(cs, registryCase(name, 4, mode, nil))
		}
		return append(cs, graphCase(seed, 2.2, 2, mode, nil))
	case "sampled":
		gs := graphSampling
		zs := gzzSampling
		return []simCase{
			registryCase("GZZ", 8, exp.Baseline, &zs),
			graphCase(seed, 0, 2, exp.Baseline, &gs),
			graphCase(seed, 0, 2, exp.DX, &gs),
			graphCase(seed, 2.2, 2, exp.Baseline, &gs),
			graphCase(seed, 2.2, 2, exp.DX, &gs),
		}
	}
	return nil
}

// The service workload's traffic: blocks of blockLen requests, each
// with exactly one fresh baseline spec and one fresh DX100 spec (20%
// fresh) at seeded positions; the rest re-submit a seeded choice of
// earlier specs. Fixing the fresh count per block keeps every stretch
// of the sequence at the stated mix.
const (
	blockLen     = 10
	seqBlocks    = 600 // 6000 requests: more than a 60 s window completes
	patternScale = 1
)

// svcSpec is one distinct spec the service workload submits.
type svcSpec struct {
	Mode    string
	Pattern *pattern.File
}

// svcRequest is one request of the sequence: which spec, and whether
// this is its first submission.
type svcRequest struct {
	Spec  int
	Fresh bool
}

// svcTraffic is the seeded request sequence with its specs.
type svcTraffic struct {
	Specs    []svcSpec
	Requests []svcRequest
}

// newTraffic generates the service workload's specs and request order
// from the seed.
func newTraffic(seed int64) svcTraffic {
	rng := rand.New(rand.NewSource(subSeed(seed, "service")))
	var t svcTraffic
	for b := 0; b < seqBlocks; b++ {
		// Two distinct fresh slots per block; the first block opens with
		// a fresh spec because nothing exists yet to repeat.
		first := rng.Intn(blockLen)
		if b == 0 {
			first = 0
		}
		second := rng.Intn(blockLen - 1)
		if second >= first {
			second++
		}
		modes := []string{"baseline", "dx100"}
		if rng.Intn(2) == 1 {
			modes[0], modes[1] = modes[1], modes[0]
		}
		for i := 0; i < blockLen; i++ {
			switch i {
			case first, second:
				m := modes[0]
				if i == second {
					m = modes[1]
				}
				t.Specs = append(t.Specs, svcSpec{Mode: m, Pattern: genPattern(rng, len(t.Specs))})
				t.Requests = append(t.Requests, svcRequest{Spec: len(t.Specs) - 1, Fresh: true})
			default:
				t.Requests = append(t.Requests, svcRequest{Spec: rng.Intn(len(t.Specs))})
			}
		}
	}
	return t
}

// genPattern draws one Spatter-style pattern file: one or two entries,
// each a gather, scatter or gather-scatter over a uniform-random,
// strided or mostly-stride-1 index pattern. Sizes stay in a narrow band
// (8-16K compiled indices per file) so cold jobs cost about the same.
func genPattern(rng *rand.Rand, id int) *pattern.File {
	f := &pattern.File{Name: fmt.Sprintf("bench-%d", id)}
	entries := 1 + rng.Intn(2)
	budget := 8192 + rng.Intn(8192)
	for e := 0; e < entries; e++ {
		n := 8 << rng.Intn(4) // pattern length 8..64
		count := int64(budget / entries / n)
		gen := func() []int64 { return genIndices(rng, n) }
		ent := pattern.Entry{Delta: int64(n) * int64(1+rng.Intn(4)), Count: count}
		switch rng.Intn(3) {
		case 0:
			ent.Kernel, ent.Pattern = "gather", gen()
		case 1:
			ent.Kernel, ent.Pattern = "scatter", gen()
		default:
			ent.Kernel, ent.Gather, ent.Scatter = "gs", gen(), gen()
		}
		if rng.Intn(4) == 0 {
			// Spatter's bounded-footprint mode: fold the iterations into a
			// power-of-two span that still holds every pattern index.
			top := int64(0)
			for _, p := range [][]int64{ent.Pattern, ent.Gather, ent.Scatter} {
				for _, v := range p {
					top = max(top, v)
				}
			}
			ent.Wrap = 1 << (1 + rng.Intn(3))
			for ent.Wrap <= top {
				ent.Wrap <<= 1
			}
		}
		f.Entries = append(f.Entries, ent)
	}
	n := f.Normalized()
	return &n
}

// genIndices draws one index pattern of length n in one of Spatter's
// shapes: uniform random over a seeded span, a fixed stride, or
// stride-1 runs broken by random jumps (MS1).
func genIndices(rng *rand.Rand, n int) []int64 {
	p := make([]int64, n)
	switch rng.Intn(3) {
	case 0:
		span := int64(n) << (2 + rng.Intn(8))
		for i := range p {
			p[i] = rng.Int63n(span)
		}
	case 1:
		stride := int64(1 + rng.Intn(16))
		for i := range p {
			p[i] = int64(i) * stride
		}
	default:
		var v int64
		for i := range p {
			if rng.Intn(8) == 0 {
				v += 1 + rng.Int63n(int64(64*n))
			} else {
				v++
			}
			p[i] = v
		}
	}
	return p
}

// requestBody is the POST /v1/runs body for one spec.
func (s svcSpec) requestBody() map[string]any {
	return map[string]any{"mode": s.Mode, "scale": patternScale, "pattern": s.Pattern}
}

// spec is the Spec the daemon resolves the request to: the Table 3
// system for the mode, the normalized pattern, scale 1.
func (s svcSpec) spec() (exp.Spec, error) {
	mode, err := exp.ParseMode(s.Mode)
	if err != nil {
		return exp.Spec{}, err
	}
	return exp.Spec{Scale: patternScale, Config: exp.Default(mode), Pattern: s.Pattern}, nil
}
