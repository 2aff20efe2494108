package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
)

// perLayer lists the metrics --trace 1 reports, with units. A metric
// reads 0 on a workload that does not exercise its layer (serve.* off
// the service, sample.* off the sampled workload, dx100.* on cores).
//
// Definitions, over the traced pass (simulation workloads) or the traced
// window (service):
//   - workloads.gen_s, exp.run_s, exp.warmup_s: mean host time per
//     instance generated / RunInstanceOpts call / warm-up phase. On the
//     service these come from pattern.Compile calls and dx100d's run
//     and phase.warmup spans.
//   - exp.encode_ms, exp.hash_us: mean ResultJSON and Spec.Hash call.
//   - sim.*: engine telemetry from OnEngineDone over the pass; the host
//     time is the engine's run, from the end of warm-up to the engine
//     stopping. On the service it comes from the direct reference runs.
//   - host_share.*: CPU profile samples folded by module, in percent.
//   - go.*: runtime counters around each run: MB allocated and GC
//     cycles per simulation, GC CPU over all CPU. On the service they
//     cover the traced window, per cold job.
//   - dram.*, l1d.*, llc.*, core.*, dx100.*: sums (counts) and
//     cycle-weighted means (rates) over the pass's Results;
//     dram.host_ns_per_req is engine host ns per DRAM request.
//   - cpu.stall.*: simprof stall buckets as shares of core cycles.
//   - sample.*: per-pass phase times and window counts; detail_frac is
//     detailed cycles over full-detail cycles; err_pct.<point> is
//     (estimate - full detail) / full detail; *_speedup.* are
//     baseline-over-DX100 cycle ratios of the graph points at full
//     detail and from the sampled estimates.
//   - serve.*: medians of dx100d's job spans (queue.wait, run, encode,
//     cache.put, cache.lookup) for cold jobs and of the clients' POST and
//     status round trips; hit_ratio and sim_runs from /metrics.json and
//     Server.SimRuns; rejected counts 503 answers.
//   - jobs_per_s, cold_*, hit_*: the service's end-to-end figures from
//     the untraced window. *_tail_ms is the highest percentile with at
//     least ten samples beyond it, *_tail_pctl says which, *_n is the
//     sample count.
var perLayer = []struct{ Name, Unit string }{
	{"workloads.gen_s", "s"},
	{"exp.run_s", "s"},
	{"exp.warmup_s", "s"},
	{"exp.encode_ms", "ms"},
	{"exp.hash_us", "us"},
	{"sim.ff_skip_frac", "fraction"},
	{"sim.ff_jumps", "count"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.ns_per_visited_cycle", "ns"},
	{"host_share.sim", "%"},
	{"host_share.dram", "%"},
	{"host_share.cache", "%"},
	{"host_share.cpu", "%"},
	{"host_share.dx100", "%"},
	{"host_share.loopir", "%"},
	{"host_share.memspace", "%"},
	{"host_share.obs", "%"},
	{"host_share.exp", "%"},
	{"host_share.sample", "%"},
	{"host_share.serve", "%"},
	{"host_share.workloads", "%"},
	{"host_share.runtime", "%"},
	{"host_share.other", "%"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "fraction"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_rate", "fraction"},
	{"dram.bw_util", "fraction"},
	{"dram.occupancy", "fraction"},
	{"dram.host_ns_per_req", "ns"},
	{"l1d.misses", "count"},
	{"llc.misses", "count"},
	{"l1d.mpki", "1/kinstr"},
	{"core.instructions", "count"},
	{"core.spin_frac", "fraction"},
	{"cpu.stall.busy", "fraction"},
	{"cpu.stall.spin", "fraction"},
	{"cpu.stall.rob_full", "fraction"},
	{"cpu.stall.lq_sq_full", "fraction"},
	{"cpu.stall.dep_indirect", "fraction"},
	{"cpu.stall.dram_bound", "fraction"},
	{"cpu.stall.other", "fraction"},
	{"dx100.instructions", "count"},
	{"dx100.words", "count"},
	{"dx100.coalesce_ratio", "fraction"},
	{"dx100.rt_stalls", "count"},
	{"dx100.tile_util", "fraction"},
	{"sample.detail_s", "s"},
	{"sample.functional_s", "s"},
	{"sample.windows", "count"},
	{"sample.detail_frac", "fraction"},
	{"sample.err_pct.gzz8.baseline", "%"},
	{"sample.err_pct.uniform.pull.baseline", "%"},
	{"sample.err_pct.uniform.pull.dx100", "%"},
	{"sample.err_pct.a2.2.pull.baseline", "%"},
	{"sample.err_pct.a2.2.pull.dx100", "%"},
	{"sample_err_pct", "%"},
	{"sample.full_speedup.uniform.pull", "x"},
	{"sample.full_speedup.a2.2.pull", "x"},
	{"sample.est_speedup.uniform.pull", "x"},
	{"sample.est_speedup.a2.2.pull", "x"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.cache_put_ms", "ms"},
	{"serve.cache_lookup_us", "us"},
	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.hit_ratio", "fraction"},
	{"serve.sim_runs", "count"},
	{"serve.rejected", "count"},
	{"jobs_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
	{"cold_tail_ms", "ms"},
	{"cold_tail_pctl", "percentile"},
	{"cold_n", "count"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"hit_tail_pctl", "percentile"},
	{"hit_n", "count"},
	{"trace_overhead_pct", "%"},
}

// statSum sums a statistic over Results; a name with a "*" matches any
// one path segment there (core*.spin_cycles, dx100.*.words).
func statSum(results []exp.Result, pattern string) float64 {
	pre, suf, wild := strings.Cut(pattern, "*")
	var sum float64
	for _, r := range results {
		if r.Stats == nil {
			continue
		}
		if !wild {
			sum += r.Stats.Get(pattern)
			continue
		}
		for _, n := range r.Stats.Names() {
			if mid, ok := strings.CutPrefix(n, pre); ok && strings.HasSuffix(mid, suf) &&
				!strings.Contains(strings.TrimSuffix(mid, suf), ".") {
				sum += r.Stats.Get(n)
			}
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers reports the modelled components' counters summed over
// results. weights gives each Result's cycle weight for the rate
// metrics.
func counterLayers(rep *report, results []exp.Result, weights []float64) {
	rep.layer("dram.reads", statSum(results, "dram.reads"), "count")
	rep.layer("dram.writes", statSum(results, "dram.writes"), "count")
	hits := statSum(results, "dram.rowhits")
	rep.layer("dram.row_hit_rate", ratio(hits, hits+statSum(results, "dram.rowmisses")+statSum(results, "dram.rowconflicts")), "fraction")
	var bw, occ, w float64
	for i, r := range results {
		bw += r.BWUtil * weights[i]
		occ += r.Occupancy * weights[i]
		w += weights[i]
	}
	rep.layer("dram.bw_util", ratio(bw, w), "fraction")
	rep.layer("dram.occupancy", ratio(occ, w), "fraction")
	rep.layer("l1d.misses", statSum(results, "l1d.misses"), "count")
	rep.layer("llc.misses", statSum(results, "llc.misses"), "count")
	var instr float64
	for _, r := range results {
		instr += r.Instructions
	}
	rep.layer("l1d.mpki", ratio(statSum(results, "l1d.misses"), instr/1000), "1/kinstr")
	rep.layer("core.instructions", instr, "count")
	rep.layer("core.spin_frac", ratio(statSum(results, "core*.spin_cycles"), statSum(results, "core*.cycles")), "fraction")
	rep.layer("dx100.instructions", statSum(results, "dx100.*.instructions"), "count")
	rep.layer("dx100.words", statSum(results, "dx100.*.words"), "count")
	rep.layer("dx100.coalesce_ratio", ratio(statSum(results, "dx100.*.rt.coalesced"), statSum(results, "dx100.*.rt.inserts")), "fraction")
	rep.layer("dx100.rt_stalls", statSum(results, "dx100.*.rt.stalls"), "count")
}

// simprofLayers reports the stall buckets and DX100 tile utilization
// of profiled (traced) runs.
func simprofLayers(rep *report, results []exp.Result) {
	var buckets []float64
	var tileSum, tileCycles float64
	for _, r := range results {
		if r.Stalls != nil {
			t := r.Stalls.Totals()
			if buckets == nil {
				buckets = make([]float64, len(t))
			}
			for i, c := range t {
				buckets[i] += float64(c)
			}
		}
		if tl := r.Timeline; tl != nil {
			for _, s := range tl.Series {
				if s.Name != "dx100.tile_util" {
					continue
				}
				prev := uint64(0)
				for i, v := range s.Values {
					span := float64(tl.Cycles[i] - prev)
					prev = tl.Cycles[i]
					tileSum += v * span
					tileCycles += span
				}
			}
		}
	}
	var total float64
	for _, c := range buckets {
		total += c
	}
	for i, name := range prof.BucketNames() {
		v := 0.0
		if i < len(buckets) {
			v = ratio(buckets[i], total)
		}
		rep.layer("cpu.stall."+name, v, "fraction")
	}
	rep.layer("dx100.tile_util", ratio(tileSum, tileCycles), "fraction")
}

// engineLayers reports the exp, workloads, sim and Go runtime layers
// over simulation runs.
func engineLayers(rep *report, runs []simRun) {
	n := float64(len(runs))
	if n == 0 {
		return
	}
	var gen, call, warm, enc, hash, eng time.Duration
	var cycles, skipped, jumps, reqs float64
	var rt rtDelta
	for _, r := range runs {
		gen += r.Gen
		call += r.Construct + r.Warmup + r.Run
		warm += r.Warmup
		enc += r.Encode
		hash += r.Hash
		eng += r.Engine
		cycles += float64(r.EngineCycles)
		skipped += float64(r.FFSkipped)
		jumps += float64(r.FFJumps)
		reqs += statSum([]exp.Result{r.Res}, "dram.reads") + statSum([]exp.Result{r.Res}, "dram.writes")
		rt = rt.add(r.Rt)
	}
	rep.layer("workloads.gen_s", gen.Seconds()/n, "s")
	rep.layer("exp.run_s", call.Seconds()/n, "s")
	rep.layer("exp.warmup_s", warm.Seconds()/n, "s")
	rep.layer("exp.encode_ms", float64(enc.Nanoseconds())/1e6/n, "ms")
	rep.layer("exp.hash_us", float64(hash.Nanoseconds())/1e3/n, "us")
	rep.layer("sim.ff_skip_frac", ratio(skipped, cycles), "fraction")
	rep.layer("sim.ff_jumps", jumps, "count")
	rep.layer("sim.ns_per_cycle", ratio(float64(eng.Nanoseconds()), cycles), "ns")
	rep.layer("sim.ns_per_visited_cycle", ratio(float64(eng.Nanoseconds()), cycles-skipped), "ns")
	rep.layer("dram.host_ns_per_req", ratio(float64(eng.Nanoseconds()), reqs), "ns")
	goLayers(rep, rt, n)
}

// goLayers reports the Go runtime's work per simulation.
func goLayers(rep *report, rt rtDelta, sims float64) {
	rep.layer("go.alloc_mb", rt.AllocBytes/(1<<20)/sims, "MB")
	rep.layer("go.gc_cycles", rt.GCs/sims, "count")
	rep.layer("go.gc_cpu_frac", ratio(rt.GCCPU, rt.CPU), "fraction")
}

// reportLayers reports the traced pass of a simulation workload.
func (b *simBench) reportLayers(p simPass, rep *report) {
	results := make([]exp.Result, len(p.Runs))
	weights := make([]float64, len(p.Runs))
	for i, r := range p.Runs {
		results[i] = r.Res
		weights[i] = float64(r.EngineCycles)
	}
	counterLayers(rep, results, weights)
	simprofLayers(rep, results)
	engineLayers(rep, p.Runs)
	if b.workload == "sampled" {
		var detail, functional time.Duration
		var windows, detailed, ref float64
		for _, r := range p.Runs {
			detail += r.Detail
			functional += r.Functional
			if s := r.Res.Sampling; s != nil {
				windows += float64(s.Windows)
				detailed += float64(s.DetailedCycles)
			}
			ref += float64(b.refCycles[r.Case])
		}
		rep.layer("sample.detail_s", detail.Seconds(), "s")
		rep.layer("sample.functional_s", functional.Seconds(), "s")
		rep.layer("sample.windows", windows, "count")
		rep.layer("sample.detail_frac", ratio(detailed, ref), "fraction")
	}
	// The identity record: each case's cycles and Result digest, which a
	// speed-only change must leave unchanged.
	ident := map[string]any{}
	for _, r := range p.Runs {
		ident[r.Case] = map[string]any{"cycles": uint64(r.Res.Cycles), "sha256": r.Digest}
	}
	rep.extra["results"] = ident
}

// reportAccuracy compares each sampled estimate with its full-detail
// reference. Sampled estimates are deterministic, so any pass will do.
func (b *simBench) reportAccuracy(p simPass, rep *report) {
	est := map[string]float64{}
	for _, r := range p.Runs {
		est[r.Case] = float64(r.Res.Cycles)
	}
	worst := 0.0
	full, sampled := map[string]float64{}, map[string]float64{}
	for _, c := range b.cases {
		ref := float64(b.refCycles[c.Label])
		if ref == 0 || est[c.Label] == 0 {
			continue
		}
		e := (est[c.Label] - ref) / ref * 100
		rep.layer("sample.err_pct."+c.Point, e, "%")
		fmt.Printf("sampled    %-34s estimate %10.0f  full detail %10.0f  error %+7.2f%%\n", c.Label, est[c.Label], ref, e)
		worst = max(worst, math.Abs(e))
		full[c.Point], sampled[c.Point] = ref, est[c.Label]
	}
	rep.info("sample_err_pct", worst, "%", "worst |estimate - full detail| / full detail over the points")
	for _, g := range []string{"uniform.pull", "a2.2.pull"} {
		base, dx := full[g+".baseline"], full[g+".dx100"]
		eb, ed := sampled[g+".baseline"], sampled[g+".dx100"]
		rep.layer("sample.full_speedup."+g, ratio(base, dx), "x")
		rep.layer("sample.est_speedup."+g, ratio(eb, ed), "x")
		fmt.Printf("sampled    DX100 speedup on graph %-12s full detail %.3fx, from sampled estimates %.3fx\n", g, ratio(base, dx), ratio(eb, ed))
	}
}
