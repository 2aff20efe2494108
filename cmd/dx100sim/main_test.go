package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
)

func TestSubset(t *testing.T) {
	if got := subset(""); got != nil {
		t.Errorf("subset(\"\") = %v, want nil", got)
	}
	if got := subset("IS,GZZ"); !reflect.DeepEqual(got, []string{"IS", "GZZ"}) {
		t.Errorf("subset = %v", got)
	}
}

// TestInfoCommands just exercises the informational printers; their
// content is pinned by the underlying packages' own tests.
func TestInfoCommands(t *testing.T) {
	listWorkloads()
	printConfig()
	printTable4()
}

// TestRunOneProfiled drives the full -run path with every output flag
// set: trace, metrics, profile window and timeline file, then checks
// the artifacts parse.
func TestRunOneProfiled(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.jsonl")
	metricsFile := filepath.Join(dir, "m.json")
	timelineFile := filepath.Join(dir, "tl.json")
	runOne("micro.gather", "", "dx100", 1, runFlags{
		verbose:       true,
		trace:         traceFile,
		metrics:       metricsFile,
		profileWindow: 8192,
		timeline:      timelineFile,
	})
	for _, p := range []string{traceFile, metricsFile, timelineFile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	b, err := os.ReadFile(timelineFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Timeline *prof.Timeline  `json:"timeline"`
		Stalls   *prof.Breakdown `json:"stall_breakdown"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Timeline == nil || doc.Timeline.Len() == 0 || doc.Stalls == nil {
		t.Fatalf("timeline file missing data: %+v", doc)
	}
}

// TestRunOneJSON covers the -json path (the dx100d wire form).
func TestRunOneJSON(t *testing.T) {
	runOne("micro.gather", "", "baseline", 1, runFlags{asJSON: true})
}

// TestRunFigure covers the figure dispatcher on a fast subset.
func TestRunFigure(t *testing.T) {
	runFigure(exp.Runner{}, "9", 1, []string{"micro.gather"}, nil)
}

// TestRunFigureUnknown: an unknown -fig name exits non-zero with the
// list dx100d refuses it with. fatal exits, so the test re-runs itself
// in a child process that takes the figure name as its one argument.
func TestRunFigureUnknown(t *testing.T) {
	if flag.NArg() == 1 {
		runFigure(exp.Runner{}, flag.Arg(0), 1, nil, nil)
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestRunFigureUnknown$", "7").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown figure exited zero:\n%s", out)
	}
	if want := exp.CheckFigure("7").Error(); !strings.Contains(string(out), want) {
		t.Fatalf("output %q does not contain %q", out, want)
	}
}

// TestRunOnePattern covers the -pattern path end to end on the
// committed golden pattern file, including the -json wire form.
func TestRunOnePattern(t *testing.T) {
	runOne("", "../../internal/workloads/pattern/testdata/xrage_like.json", "dx100", 1,
		runFlags{asJSON: true})
}

// TestRunFigureSkew covers the skewed-graph sweep dispatcher at smoke
// scale with its default sampling.
func TestRunFigureSkew(t *testing.T) {
	runFigure(exp.Runner{}, "skew", 1, nil, nil)
}
