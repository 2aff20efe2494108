package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dx100/internal/obs"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

// updateGoldens rewrites the committed golden trace from the current
// model instead of diffing against it:
//
//	go test ./internal/exp -run TestGoldenTrace -update
//
// Only do this after an intentional model change, and review the new
// file in the diff — the golden exists precisely so that accidental
// changes to command scheduling fail loudly.
var updateGoldens = flag.Bool("update", false, "rewrite golden trace files under testdata/ from the current model")

// TestTraceResultNeutral pins the observation-only contract promised in
// RunOptions.Trace: a run with a trace sink attached produces
// byte-identical wire-form Results to a plain run, on two workloads
// with different access patterns, under the full DX100 system.
func TestTraceResultNeutral(t *testing.T) {
	for _, name := range []string{"micro.gather", "micro.scatter"} {
		t.Run(name, func(t *testing.T) {
			sink := obs.NewSink(0)
			traced, err := RunOpts(name, 1, Default(DX), RunOptions{Trace: sink})
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, "traced run", ref(t, plain(name, DX)).wire, wireOf(t, traced))
			// The neutrality only means something if the sink actually
			// observed the run: every layer must have emitted.
			if sink.Total() == 0 {
				t.Fatal("trace sink saw no events over a full DX100 run")
			}
			cats := map[string]bool{}
			for _, ev := range sink.Events() {
				cats[ev.Kind.Category()] = true
			}
			for _, want := range []string{"dram", "cache", "dx100"} {
				if !cats[want] {
					t.Errorf("no %s events in the trace (categories seen: %v)", want, cats)
				}
			}
		})
	}
}

// goldenTraceLines is how much of the trace the golden pins: enough to
// cover the warm-up ACT/RD bursts, the first precharges and the first
// DX100 activity, small enough to review in a diff.
const goldenTraceLines = 250

// traceHead runs inst on the DX100 system with a spilling JSONL sink
// and returns the first goldenTraceLines lines of the trace.
func traceHead(inst *workloads.Instance) (string, error) {
	var buf bytes.Buffer
	sink := obs.NewSink(0)
	sink.SpillJSONL(&buf)
	if _, err := RunInstanceOpts(inst, Default(DX), RunOptions{Trace: sink}); err != nil {
		return "", err
	}
	if err := sink.Close(); err != nil {
		return "", err
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if len(lines) < goldenTraceLines {
		return "", fmt.Errorf("trace too short for the golden: %d lines", len(lines))
	}
	return strings.Join(lines[:goldenTraceLines], ""), nil
}

// captureTraceHead is traceHead of a freshly built instance.
func captureTraceHead(t *testing.T, inst *workloads.Instance) string {
	t.Helper()
	head, err := traceHead(inst)
	if err != nil {
		t.Fatal(err)
	}
	return head
}

// goldenTrace is the trace head of the original golden workload
// (micro.gather, scale 1), traced once for the golden and the
// stability check.
var goldenTrace = sync.OnceValues(func() (string, error) {
	return traceHead(workloads.Registry["micro.gather"](1))
})

// goldenTraceDiff diffs a captured trace head against the committed
// golden at path, rewriting it first under -update. The simulator is
// deterministic, so any divergence means the command schedule (or the
// trace encoding) changed. For an intentional change, regenerate with
// -update (see updateGoldens) and review + commit the new file.
func goldenTraceDiff(t *testing.T, path, got string) {
	t.Helper()
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", path, goldenTraceLines)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with: go test ./internal/exp -run TestGoldenTrace -update)", err)
	}
	if bytes.Equal([]byte(got), want) {
		// Sanity on the golden itself: every line is valid JSON with
		// the JSONL schema's fixed leading keys.
		for i, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("golden line %d is not valid JSON: %v", i+1, err)
			}
			for _, k := range []string{"cycle", "cat", "name", "src"} {
				if _, ok := m[k]; !ok {
					t.Fatalf("golden line %d misses key %q: %s", i+1, k, line)
				}
			}
		}
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	n := min(len(gotLines), len(wantLines))
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("trace diverges from golden at line %d:\n got: %s\nwant: %s\n(intentional model change? regenerate with -update and review the diff)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("trace length differs from golden: got %d lines, want %d", len(gotLines), len(wantLines))
}

// TestGoldenTraceMicroGather pins the head of the micro.gather DX100
// event trace.
func TestGoldenTraceMicroGather(t *testing.T) {
	got, err := goldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	goldenTraceDiff(t, filepath.Join("testdata", "micro_gather_dx_trace.jsonl"), got)
}

// goldenGraphInstance is a deliberately small skewed graph (power-law
// exponent 2, community clustering) so the traced DX100 run stays fast
// while still exercising the structured generator's command schedule.
func goldenGraphInstance() *workloads.Instance {
	return workloads.BuildGraph(workloads.GraphConfig{
		Kernel: "pr", Dir: "push",
		Exponent: 2.0, Clustering: workloads.DefaultClustering,
		Nodes: 2048, Deg: 8,
	}, 1)
}

// TestGoldenTraceGraphSkewed pins the head of a skewed-graph PR push
// traversal's DX100 event trace — the structured-generator twin of the
// micro.gather golden.
func TestGoldenTraceGraphSkewed(t *testing.T) {
	goldenTraceDiff(t, filepath.Join("testdata", "graph_pr_push_dx_trace.jsonl"),
		captureTraceHead(t, goldenGraphInstance()))
}

// TestGoldenTracePattern pins the head of the compiled golden pattern
// file's DX100 event trace.
func TestGoldenTracePattern(t *testing.T) {
	inst, err := pattern.Compile(patternFile(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	goldenTraceDiff(t, filepath.Join("testdata", "pattern_xrage_dx_trace.jsonl"), captureTraceHead(t, inst))
}

// TestGoldenTraceStableAcrossRuns guards the golden's premise without
// touching the file: a second capture in the same process is
// byte-identical to the first.
func TestGoldenTraceStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("second full traced run")
	}
	a, err := goldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	b := captureTraceHead(t, workloads.Registry["micro.gather"](1))
	if a != b {
		t.Fatal("two traced runs of the same spec produced different traces")
	}
}
