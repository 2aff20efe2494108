// Command perfbench is the dx100 repository's benchmark: one command
// that runs a named workload through the simulator's public entry
// points, checks every output, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics) as one JSON line.
//
//	bash perfbench/run.sh --workload cores --seed 1 --seconds 10 --trace 0
//
// # Workloads
//
// The four workloads stress different layers:
//
//   - cores: full-detail baseline-system runs of IS, GZZ, PR and XRAGE
//     at scale 4 plus graph PR (pull, alpha 2.2) on the seeded graph at
//     scale 2. The cores drive memory and fast-forward skips most
//     cycles, so sim, cpu and cache do the work; dx100 does none.
//   - accel: the same five instances on the DX100 system. The
//     accelerator keeps the DRAM request buffers full, so fast-forward
//     skips little and dram and dx100 do the work while cpu and cache
//     sit idle. The skewed graph is where DX100 tile chunking acts.
//   - sampled: interval-sampled runs, each with an untimed full-detail
//     reference of the same instance: GZZ at scale 8 on the baseline
//     (interval 10000, detail 8000, warm-up 2000) and graph PR (pull,
//     alpha 0 and 2.2) at scale 2 on both systems (50000/10000/2000).
//     It is the only workload that runs the functional executor and the
//     Engine.RunUntil windows, and the only place sampled accuracy is
//     measured.
//   - service: a closed loop of two clients against an in-process
//     dx100d (serve.New(...).Handler() over httptest) with its default
//     two workers. Each client waits for its Result before it submits
//     again, as dx100d's callers do. One request in five is a fresh
//     seeded pattern file at scale 1 (half baseline, half DX100); the
//     rest re-submit earlier specs, so cold jobs run queue, simulation,
//     encode and cache put while repeats take the coalesce path.
//
// # Execution policy and what the numbers mean
//
// Every simulation uses the default policy: serial engine, fast-forward
// on, profiling off, and caches starting empty (no WarmLLC). All work
// runs in one process with at most two simulations or client
// connections at a time. The model is unvalidated against hardware:
// the only accuracy figure is sampled estimates against full detail of
// the same model. Registry datasets do not vary with the seed; the
// seed drives GraphConfig.Seed, the pattern files and the service
// request order.
//
// Layers left unmeasured on purpose: prefetch (no workload runs DMP
// mode), sample/ckpt (no workload warms the LLC, so no checkpoint is
// written) and amodel (the area and energy model is static).
//
// # Correctness
//
// After every simulation the instance's simulated memory must equal
// loopir.Interpret on a pristine copy; every Result of a case must be
// byte-identical across passes. Every served Result must decode, every
// repeat must return the first response's bytes, and a seeded sample of
// cold specs must match a direct Spec.Run byte for byte. Failures count
// in "failed"; the command exits 1 when any occurs.
//
// # Tracing
//
// --trace 1 first measures as --trace 0 does, then repeats the work
// traced: spans around every layer call (internal/obs/span, one trace
// id per operation, service requests carrying traceparent so dx100d's
// job spans join the client's trace), a runtime/pprof CPU profile
// folded into host_share.*, runtime memory statistics around each run,
// and simprof stall buckets. The traced Results must hash the same as
// the untraced ones. The span file (Perfetto-loadable) and every
// per-layer number land in .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics --trace 0 reports on every workload.
var endToEnd = []struct{ Name, Unit string }{
	{"wall_s", "s"},
	{"sim_mcps", "Mcycles/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// report collects one run's counts, metrics and failures.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	errs      []string
	metrics   map[string]metric // end-to-end metrics
	layers    map[string]metric // per-layer metrics
	extra     map[string]any    // digests and notes for the layer file
}

func newReport(workload string, seed int64) *report {
	return &report{
		workload: workload, seed: seed,
		metrics: map[string]metric{},
		layers:  map[string]metric{},
		extra:   map[string]any{},
	}
}

func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// e2e records an end-to-end metric of the result line and prints it.
func (r *report) e2e(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	fmt.Printf("end-to-end %-16s %14.6g %-10s %s\n", name, v, unit, note)
}

// info prints an end-to-end figure that is not on every workload; it
// is reported with the per-layer metrics.
func (r *report) info(name string, v float64, unit, note string) {
	r.layers[name] = metric{v, unit}
	fmt.Printf("end-to-end %-16s %14.6g %-10s %s\n", name, v, unit, note)
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

func main() {
	workload := flag.String("workload", "", "cores, accel, sampled or service")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = also run the traced pass and report per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A hung run fails fast instead of outliving its caller's limit.
	limit := time.Duration(2**seconds+150) * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", limit)
		os.Exit(1)
	})
	rep := newReport(*workload, *seed)
	var err error
	switch *workload {
	case "cores", "accel", "sampled":
		err = runSim(*workload, *seed, *seconds, *trace == 1, rep)
	case "service":
		err = runService(*seed, *seconds, *trace == 1, rep)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want cores, accel, sampled or service)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.e2e("peak_rss_mb", peakRSSMB(), "MB", "process peak resident set")
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("end-to-end %-16s %14.6g %-10s %d failed of %d attempted\n", "error_rate", errRate, "fraction", rep.failed, rep.attempted)

	out := map[string]metric{}
	if *trace == 1 {
		for _, m := range perLayer {
			v, ok := rep.layers[m.Name]
			if !ok {
				v = metric{0, m.Unit} // the workload does not exercise this layer
			}
			out[m.Name] = v
		}
		if err := rep.writeLayers(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	} else {
		for _, m := range endToEnd {
			out[m.Name] = rep.metrics[m.Name]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// writeLayers writes every per-layer metric, digest and note of a
// traced run to .bench_build/perfbench/layers-<workload>-<seed>.json.
func (r *report) writeLayers() error {
	names := make([]string, 0, len(r.layers))
	for k := range r.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	doc := map[string]any{
		"workload": r.workload, "seed": r.seed,
		"attempted": r.attempted, "failed": r.failed, "errors": r.errs,
		"end_to_end": r.metrics, "per_layer": r.layers, "extra": r.extra,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/layers-%s-%d.json", outDir, r.workload, r.seed)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	for _, k := range names {
		m := r.layers[k]
		fmt.Printf("per-layer  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("per-layer file: %s\n", path)
	return nil
}

// outDir holds the traced run's files, under the checkout's build
// directory.
const outDir = ".bench_build/perfbench"
