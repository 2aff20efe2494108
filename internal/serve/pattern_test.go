package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"dx100/internal/exp"
	"dx100/internal/workloads/pattern"
)

// goldenPattern loads the pattern package's committed golden file — the
// same bytes the CLI-vs-daemon identity is asserted over.
func goldenPattern(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../workloads/pattern/testdata/xrage_like.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPatternByteIdenticalToCLI is the pattern-path acceptance golden:
// a pattern file submitted as a per-job field must serve bytes
// identical to `dx100sim -pattern file.json -json`, which runs the same
// exp.Spec directly.
func TestPatternByteIdenticalToCLI(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"pattern": %s, "mode": "dx100", "scale": 1}`, goldenPattern(t))
	sr, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("status = %s (err %q), want done", v.Status, v.Error)
	}

	pf, err := pattern.Parse(goldenPattern(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := exp.Spec{Scale: 1, Config: exp.Default(exp.DX), Pattern: pf}
	res, err := spec.Run(exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("served pattern result differs from CLI path:\nserver: %s\ncli:    %s", v.Result, want)
	}
	if srv.SimRuns() != 1 {
		t.Fatalf("SimRuns = %d, want 1", srv.SimRuns())
	}

	// The same pattern phrased differently (kernel case, key order)
	// must hash to the same job: normalization is part of resolve.
	alt := `{"scale": 1, "mode": "dx100", "pattern": {"name": "xrage-like", "entries": [` +
		`{"kernel": "GATHER", "name": "cell-gather", "pattern": [0,1,2,3,8,9,10,11], "delta": 16, "count": 512},` +
		`{"kernel": "scatter", "name": "face-scatter", "pattern": [0,4,8,12,16,20,24,28], "delta": 32, "count": 256},` +
		`{"kernel": "Gs", "name": "remap", "pattern_gather": [0,2,4,6], "pattern_scatter": [3,2,1,0], "delta": 8, "count": 256}]}}`
	sr2, code := postRun(t, ts, alt)
	if code != http.StatusAccepted {
		t.Fatalf("alt submit status = %d, want 202", code)
	}
	if sr2.ID != sr.ID {
		t.Fatalf("equivalent pattern hashed differently: %s vs %s", sr2.ID, sr.ID)
	}
	if srv.SimRuns() != 1 {
		t.Fatalf("coalesced pattern resubmit ran a simulation: SimRuns = %d", srv.SimRuns())
	}
}

// TestPatternSubmitRejects: hostile or ambiguous pattern submissions
// fail at resolve time with 400, never reaching a worker.
func TestPatternSubmitRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []string{
		// both a workload and a pattern
		`{"workload": "micro.gather", "pattern": {"entries": [{"kernel": "gather", "pattern": [0]}]}, "scale": 1}`,
		// no entries
		`{"pattern": {"entries": []}, "scale": 1}`,
		// unknown kernel
		`{"pattern": {"entries": [{"kernel": "knife", "pattern": [0]}]}, "scale": 1}`,
		// count cap
		`{"pattern": {"entries": [{"kernel": "gather", "pattern": [0], "count": 999999999}]}, "scale": 1}`,
		// negative index
		`{"pattern": {"entries": [{"kernel": "gather", "pattern": [-1]}]}, "scale": 1}`,
	}
	for _, body := range bad {
		if _, code := postRun(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit %s -> %d, want 400", body, code)
		}
	}
}

// TestSubmitBodyLimit pins the POST /v1/runs body bound from both
// sides: the largest pattern file pattern.Validate accepts, indented,
// is admitted, and a body one byte over maxRunBody gets 413.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// MaxEntries "gs" entries of two MaxPatternLen patterns each, with
	// 128-byte names and the largest indices the file-span cap leaves
	// every pattern.
	perPattern := int64(pattern.MaxFileSpan / (2 * pattern.MaxEntries))
	f := pattern.File{Name: strings.Repeat("f", 128)}
	for e := 0; e < pattern.MaxEntries; e++ {
		g := make([]int64, pattern.MaxPatternLen)
		s := make([]int64, pattern.MaxPatternLen)
		for i := range g {
			g[i] = perPattern - 1 - int64(i)
			s[i] = perPattern - 1 - int64(i*7%pattern.MaxPatternLen)
		}
		f.Entries = append(f.Entries, pattern.Entry{
			Name: strings.Repeat("e", 128), Kernel: "gs", Gather: g, Scatter: s, Count: 1,
		})
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("maximal file rejected by Validate: %v", err)
	}
	// The test pins admission, not the run: a one-cycle budget ends the
	// accepted job at once.
	oneCycle := uint64(1)
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	req := runRequest{Pattern: raw, Mode: "baseline", Scale: 1, Overrides: &Overrides{MaxCycles: &oneCycle}}
	body, err := json.MarshalIndent(req, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	sr, code := postRun(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("maximal pattern (%d bytes, limit %d) -> %d, want 202", len(body), maxRunBody, code)
	}
	pollDone(t, ts, sr.ID)

	// Well-formed JSON whose closing bytes lie past the limit: the
	// decoder hits the bound before the value ends.
	prefix := `{"workload": "micro.gather", "pad": "`
	over := prefix + strings.Repeat("x", maxRunBody+1-len(prefix)-2) + `"}`
	if _, code := postRun(t, ts, over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body -> %d, want 413", len(over), code)
	}
}
