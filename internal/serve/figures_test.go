package serve

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dx100/internal/exp"
)

// updateFigGoldens rewrites the committed golden figure text from the
// current output:
//
//	go test ./internal/serve -run TestFigureGolden -update
var updateFigGoldens = flag.Bool("update", false, "rewrite golden figure files")

// figRequest builds a routed GET request so PathValue("n") resolves.
func figRequest(t *testing.T, url string) *http.Request {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, url, nil)
	r.SetPathValue("n", strings.TrimPrefix(strings.SplitN(r.URL.Path, "?", 2)[0], "/v1/figures/"))
	return r
}

func TestParseFigSpec(t *testing.T) {
	for _, tc := range []struct {
		url     string
		want    figSpec
		wantErr string
	}{
		{url: "/v1/figures/9", want: figSpec{Figure: "9", Scale: 1}},
		// workers= is no longer read: -figworkers is the one pool width.
		{url: "/v1/figures/9?scale=4&workloads=IS,GZZ&noff=true&workers=3",
			want: figSpec{Figure: "9", Scale: 4, Workloads: []string{"IS", "GZZ"}, NoFastForward: true}},
		{url: "/v1/figures/9?workers=-2", want: figSpec{Figure: "9", Scale: 1}},
		{url: "/v1/figures/energy?scale=64", want: figSpec{Figure: "energy", Scale: 64}},
		{url: "/v1/figures/ablation?scale=2", want: figSpec{Figure: "ablation", Scale: 2}},
		{url: "/v1/figures/7", wantErr: "unknown figure"},
		{url: "/v1/figures/skew", wantErr: "unknown figure"},
		{url: "/v1/figures/9?scale=0", wantErr: "scale"},
		{url: "/v1/figures/9?scale=banana", wantErr: "scale"},
		{url: "/v1/figures/9?scale=65", wantErr: "above the limit of 64"},
		{url: "/v1/figures/9?workloads=NOPE", wantErr: `unknown workload "NOPE"`},
	} {
		t.Run(tc.url, func(t *testing.T) {
			got, err := parseFigSpec(figRequest(t, tc.url))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Figure != tc.want.Figure || got.Scale != tc.want.Scale ||
				got.NoFastForward != tc.want.NoFastForward ||
				strings.Join(got.Workloads, ",") != strings.Join(tc.want.Workloads, ",") {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestParseFigSpecNames: the daemon accepts exactly exp's figure
// table, and refuses any other name with the error dx100sim prints.
func TestParseFigSpecNames(t *testing.T) {
	for _, n := range exp.FigureNames() {
		if _, err := parseFigSpec(figRequest(t, "/v1/figures/"+n)); err != nil {
			t.Errorf("figure %q refused: %v", n, err)
		}
	}
	for _, n := range []string{"7", "skew", "all"} {
		_, err := parseFigSpec(figRequest(t, "/v1/figures/"+n))
		if err == nil || err.Error() != exp.CheckFigure(n).Error() {
			t.Errorf("figure %q: err = %v, want %v", n, err, exp.CheckFigure(n))
		}
	}
}

// TestFigSpecHash pins the content-address semantics: identical specs
// collide and every field separates.
func TestFigSpecHash(t *testing.T) {
	base := figSpec{Figure: "9", Scale: 2, Workloads: []string{"IS"}}
	h1, err := base.hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := figSpec{Figure: "9", Scale: 2, Workloads: []string{"IS"}}.hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("identical specs hashed differently")
	}
	for name, alt := range map[string]figSpec{
		"figure":    {Figure: "10", Scale: 2, Workloads: []string{"IS"}},
		"scale":     {Figure: "9", Scale: 3, Workloads: []string{"IS"}},
		"workloads": {Figure: "9", Scale: 2, Workloads: []string{"GZZ"}},
		"noff":      {Figure: "9", Scale: 2, Workloads: []string{"IS"}, NoFastForward: true},
	} {
		h, err := alt.hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestFigureGolden executes figure 9 over the gather microkernel and
// compares the rendered ASCII text against the committed golden — the
// serve-side figure path is deterministic end to end. Regenerate with
// -update after an intentional model change.
func TestFigureGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{FigWorkers: 2})
	resp, err := http.Get(ts.URL + "/v1/figures/9?scale=1&workloads=micro.gather")
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("figure job: status %s (err %q)", v.Status, v.Error)
	}
	var fr figureResult
	if err := json.Unmarshal(v.Result, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "9" || len(fr.Series) != 1 || fr.Text == "" {
		t.Fatalf("figure result = %q, %d series, %d text bytes", fr.Figure, len(fr.Series), len(fr.Text))
	}

	golden := filepath.Join("testdata", "fig9_micro_gather.txt")
	if *updateFigGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(fr.Text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/serve -run TestFigureGolden -update)", err)
	}
	if fr.Text != string(want) {
		t.Fatalf("figure 9 text drifted from golden:\ngot:\n%s\nwant:\n%s", fr.Text, want)
	}
}

// TestExecuteFigureUnknown covers the error paths executeFigure guards
// even though parseFigSpec normally screens them out.
func TestExecuteFigureUnknown(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	j := newJob("x", "figure")
	j.fig = figSpec{Figure: "nope", Scale: 1}
	if _, err := srv.executeFigure(srv.ctx, j); err == nil {
		t.Fatal("unknown figure did not error")
	}
}
