// Command benchdiff guards the simulator's performance envelope in two
// ways. First, it runs the engine microbenchmarks in five rounds,
// parses the standard `go test -bench` output, and compares each
// benchmark's fastest reading against the committed baseline in
// BENCH_engine.json; a benchmark slower than the baseline by more than
// the threshold fails the run (exit 1), so an accidental hot-loop
// regression is caught before the numbers in the JSON go stale, while
// one round slowed by host noise cannot fail it. Second, it enforces the baseline's speedup_gates:
// each gate names two benchmarks from the same fresh run and a minimum
// ns/op ratio between them — e.g. a full-detail run must stay at least
// 3x slower than the same run under interval sampling. Because a gate
// compares two measurements from one host and one binary, it is
// machine-independent where the absolute ns/op comparison is not, and
// it fails hard rather than drifting with the hardware. A gate reads
// the median of its per-round ratios, so one noisy round cannot decide
// it.
//
// Usage:
//
//	benchdiff                      # run benchmarks, compare at 10%
//	benchdiff -threshold 0.25      # looser drift gate (ratios unaffected)
//	benchdiff -input bench.txt     # compare pre-recorded output instead
//
// Sub-nanosecond baselines are skipped: at that scale the measurement
// is dominated by loop overhead and scheduler noise, not by the code
// under test.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// baseline mirrors the slices of BENCH_engine.json benchdiff consumes.
type baseline struct {
	Microbenchmarks map[string]struct {
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"microbenchmarks"`
	SpeedupGates []speedupGate `json:"speedup_gates"`
}

// speedupGate is one enforced ratio between two benchmarks of the same
// fresh run: numerator ns/op divided by denominator ns/op must be at
// least MinRatio. Gates express "A must stay N times slower than B"
// invariants (the sampler's wall-clock win) that absolute ns/op
// budgets cannot.
type speedupGate struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	MinRatio    float64 `json:"min_ratio"`
	Note        string  `json:"note,omitempty"`
}

// benchPackages lists where the baselined microbenchmarks and the
// speedup-gated benchmarks live; kept in sync with the `microbench`
// Makefile target (minus the minutes-long end-to-end figure run, which
// has no ns_per_op entry to gate on). The sampled runs take seconds per
// iteration, so they run one iteration each (-benchtime=1x): a round
// times the full-detail run and then the sampled one, so both sides of
// a round's ratio see the same host load.
var benchPackages = []struct {
	pattern, pkg string
	extra        []string
}{
	{"BenchmarkSchedulePop|BenchmarkEngineStep", "./internal/sim", nil},
	{"BenchmarkDRAMTick", "./internal/dram", nil},
	{"BenchmarkSampledRun", "./internal/exp", []string{"-benchtime=1x", "-timeout=30m"}},
}

// rounds is how many times each set runs: a drift comparison reads a
// benchmark's fastest round, and a gate the median of its rounds.
const rounds = 5

// subNanosecond is the noise floor below which comparisons are
// meaningless: BenchmarkEngineStepSparse measures ~0.016 ns/op because
// fast-forward amortizes one pop over thousands of cycles.
const subNanosecond = 1.0

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "committed baseline to compare against")
	threshold := flag.Float64("threshold", 0.10, "fractional ns/op regression that fails the gate")
	input := flag.String("input", "", "parse this pre-recorded `go test -bench` output instead of running benchmarks")
	flag.Parse()

	base, gates, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var fresh map[string][]float64
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		fresh, err = parseBench(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		fresh, err = runBenchmarks()
		if err != nil {
			fatal(err)
		}
	}

	regressions, report := diff(base, fastest(fresh), *threshold)
	fmt.Print(report)
	gateFailures, gateReport := checkGates(gates, fresh)
	fmt.Print(gateReport)
	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.0f%%\n", regressions, 100**threshold)
	}
	if gateFailures > 0 {
		fmt.Printf("benchdiff: %d speedup gate(s) failed\n", gateFailures)
	}
	if regressions+gateFailures > 0 {
		os.Exit(1)
	}
	fmt.Println("benchdiff: within budget")
}

func loadBaseline(path string) (map[string]float64, []speedupGate, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc baseline
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Microbenchmarks) == 0 {
		return nil, nil, fmt.Errorf("%s carries no microbenchmarks", path)
	}
	for _, g := range doc.SpeedupGates {
		if g.Name == "" || g.Numerator == "" || g.Denominator == "" || g.MinRatio <= 0 {
			return nil, nil, fmt.Errorf("%s: malformed speedup gate %+v", path, g)
		}
	}
	out := make(map[string]float64, len(doc.Microbenchmarks))
	for name, e := range doc.Microbenchmarks {
		out[name] = e.NsPerOp
	}
	return out, doc.SpeedupGates, nil
}

// runBenchmarks runs each gated benchmark set rounds times and collects
// every reading per benchmark in round order.
func runBenchmarks() (map[string][]float64, error) {
	var all strings.Builder
	for _, set := range benchPackages {
		args := []string{"test", "-run", "^$", "-bench", set.pattern, "-benchmem"}
		args = append(args, set.extra...)
		args = append(args, set.pkg)
		for range rounds {
			cmd := exec.Command("go", args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("go test -bench %s %s: %w", set.pattern, set.pkg, err)
			}
			all.Write(out)
		}
	}
	return parseBench(strings.NewReader(all.String()))
}

// parseBench extracts every ns/op reading per benchmark from standard
// `go test -bench` output, in the order they appear, keyed by name
// with the -N GOMAXPROCS suffix stripped. A benchmark appears more
// than once under -count or over several rounds.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Benchmark lines read: Name-N  iterations  X ns/op  [more pairs]
		var ns float64
		var found bool
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q in %q", fields[i], sc.Text())
				}
				ns, found = v, true
				break
			}
		}
		if !found {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = append(out[name], ns)
	}
	return out, sc.Err()
}

// fastest folds each benchmark's readings to their minimum, the least
// noisy estimate of the code's cost, for the drift comparison.
func fastest(runs map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(runs))
	for name, ns := range runs {
		out[name] = slices.Min(ns)
	}
	return out
}

// diff compares fresh results against the baseline and renders the
// comparison table. It returns the number of regressions beyond the
// threshold.
func diff(base, fresh map[string]float64, threshold float64) (int, string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	regressions := 0
	fmt.Fprintf(&b, "%-28s %12s %12s %8s\n", "benchmark", "baseline", "fresh", "delta")
	for _, name := range names {
		want := base[name]
		got, ok := fresh[name]
		switch {
		case !ok:
			fmt.Fprintf(&b, "%-28s %12.4g %12s %8s\n", name, want, "missing", "-")
		case want < subNanosecond:
			fmt.Fprintf(&b, "%-28s %12.4g %12.4g %8s  (sub-ns, skipped)\n", name, want, got, "-")
		default:
			delta := (got - want) / want
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(&b, "%-28s %12.4g %12.4g %+7.1f%%%s\n", name, want, got, 100*delta, mark)
		}
	}
	return regressions, b.String()
}

// checkGates enforces the baseline's speedup gates against the fresh
// results and renders the gate table. A gate's ratio is the median
// over rounds of numerator over denominator, pairing the k-th reading
// of each. A gate whose benchmarks are missing from the run fails: a
// silently skipped gate would read as a pass.
func checkGates(gates []speedupGate, fresh map[string][]float64) (int, string) {
	if len(gates) == 0 {
		return 0, ""
	}
	var b strings.Builder
	failures := 0
	fmt.Fprintf(&b, "\n%-26s %8s %8s\n", "speedup gate", "ratio", "min")
	for _, g := range gates {
		num, den := fresh[g.Numerator], fresh[g.Denominator]
		var ratios []float64
		for k := 0; k < len(num) && k < len(den); k++ {
			if den[k] > 0 {
				ratios = append(ratios, num[k]/den[k])
			}
		}
		if len(ratios) == 0 {
			missing := g.Numerator
			if len(num) > 0 {
				missing = g.Denominator
			}
			fmt.Fprintf(&b, "%-26s %8s %8.2f  FAIL (%s missing)\n", g.Name, "-", g.MinRatio, missing)
			failures++
			continue
		}
		ratio := median(ratios)
		mark := ""
		if ratio < g.MinRatio {
			mark = "  FAIL"
			failures++
		}
		fmt.Fprintf(&b, "%-26s %8.2f %8.2f%s", g.Name, ratio, g.MinRatio, mark)
		if len(ratios) > 1 {
			fmt.Fprintf(&b, "  (rounds %.2f)", ratios)
		}
		b.WriteString("\n")
	}
	return failures, b.String()
}

// median returns the middle of xs, the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
