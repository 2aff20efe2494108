package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
	"dx100/internal/sim"
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
	runFigure(exp.Runner{}, "9", 1, []string{"micro.gather"})
}

// TestRunFigureUnknown: an unknown -fig name, "all" included, exits
// non-zero with the list dx100d refuses it with. fatal exits, so the
// test re-runs itself in a child process that takes the figure name as
// its one argument.
func TestRunFigureUnknown(t *testing.T) {
	if flag.NArg() == 1 {
		runFigure(exp.Runner{}, flag.Arg(0), 1, nil)
		return
	}
	for _, name := range []string{"7", "all"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRunFigureUnknown$", name).CombinedOutput()
		if err == nil {
			t.Fatalf("figure %q exited zero:\n%s", name, out)
		}
		if want := exp.CheckFigure(name).Error(); !strings.Contains(string(out), want) {
			t.Fatalf("output %q does not contain %q", out, want)
		}
	}
}

// TestRunFigureRefusesRunFlags: a flag that shapes one -run exits 2
// beside -fig instead of being ignored, tested in a child process as
// TestRunFigureUnknown is. Flags every mode shares pass.
func TestRunFigureRefusesRunFlags(t *testing.T) {
	if flag.NArg() > 0 {
		refuseRunFlags(flag.Args())
		return
	}
	for _, name := range []string{"noff", "sample-interval", "json"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRunFigureRefusesRunFlags$", "fig", name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-%s beside -fig: err = %v, want exit status 2\n%s", name, err, out)
		}
		if want := "-" + name + " applies to -run and -pattern"; !strings.Contains(string(out), want) {
			t.Fatalf("output %q does not contain %q", out, want)
		}
	}
	if out, err := exec.Command(os.Args[0], "-test.run=^TestRunFigureRefusesRunFlags$", "fig", "scale", "jobs", "workloads").CombinedOutput(); err != nil {
		t.Fatalf("figure flags refused: %v\n%s", err, out)
	}
}

// TestRunOnePattern covers the -pattern path end to end on the
// committed golden pattern file, including the -json wire form.
func TestRunOnePattern(t *testing.T) {
	runOne("", "../../internal/workloads/pattern/testdata/xrage_like.json", "dx100", 1,
		runFlags{asJSON: true})
}

// TestRunFigureSkew covers the skewed-graph sweep, a row of the figure
// table like any other, at smoke scale and full detail.
func TestRunFigureSkew(t *testing.T) {
	runFigure(exp.Runner{}, "skew", 1, nil)
}

// TestSteppingReport checks the -v stepping summary on GZZ at scale 1
// on DX100, whose counters TestFastForwardEngages pins: the visited
// share first, then the declining ticker types, most first.
func TestSteppingReport(t *testing.T) {
	var rep string
	opts := exp.RunOptions{OnEngineDone: func(e *sim.Engine) { rep = steppingReport(e) }}
	if _, err := exp.RunOpts("GZZ", 1, exp.Default(exp.DX), opts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(rep, "\n"), "\n")
	want := []string{
		"59766 of 169305 (35.3%), 44882 jumps",
		"*dx100.Accel:      11696 visited cycles (19.6%)",
		"*dram.System:      2960 visited cycles (5.0%)",
		"*cpu.Core:         10 visited cycles (0.0%)",
	}
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), rep)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i], w)
		}
	}
}
