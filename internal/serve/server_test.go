package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dx100/internal/exp"
)

// newTestServer starts a Server plus an httptest front end. Using a
// real HTTP listener (rather than calling the mux directly) exercises
// the SSE flushing path the way curl would see it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

// pollDone polls the status endpoint until the job reaches a terminal
// state.
func pollDone(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v statusView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return statusView{}
}

// TestEndToEndByteIdenticalToCLI is the acceptance golden: a run
// served by dx100d must produce bytes identical to the direct
// exp.Run + exp.ResultJSON path that `dx100sim -json` uses.
func TestEndToEndByteIdenticalToCLI(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sr, code := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if sr.ID == "" || !validKey(sr.ID) {
		t.Fatalf("submit id %q is not a content hash", sr.ID)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("status = %s (err %q), want done", v.Status, v.Error)
	}

	res, err := exp.Run("micro.gather", 1, exp.Default(exp.DX))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("served result differs from CLI path:\nserver: %s\ncli:    %s", v.Result, want)
	}
	if srv.SimRuns() != 1 {
		t.Fatalf("SimRuns = %d, want 1", srv.SimRuns())
	}
}

// TestCacheHitSkipsSimulation re-submits an identical config and
// asserts zero new simulation work: the run counter stays at 1 and the
// response is flagged cached.
func TestCacheHitSkipsSimulation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const body = `{"workload":"micro.gather","scale":1}`
	sr1, _ := postRun(t, ts, body)
	first := pollDone(t, ts, sr1.ID)
	if first.Status != StateDone {
		t.Fatalf("first run: status %s (err %q)", first.Status, first.Error)
	}
	if srv.SimRuns() != 1 {
		t.Fatalf("after first run SimRuns = %d, want 1", srv.SimRuns())
	}

	sr2, code := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d, want 202", code)
	}
	if sr2.ID != sr1.ID {
		t.Fatalf("identical submission hashed differently: %s vs %s", sr2.ID, sr1.ID)
	}
	if sr2.Status != StateDone {
		t.Fatalf("resubmit state = %s, want done (coalesced onto finished job)", sr2.Status)
	}
	second := pollDone(t, ts, sr2.ID)
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatal("cached result differs from original")
	}
	if srv.SimRuns() != 1 {
		t.Fatalf("cache hit ran a simulation: SimRuns = %d, want 1", srv.SimRuns())
	}

	// A different spec (mode flip) must NOT hit the cache.
	sr3, _ := postRun(t, ts, `{"workload":"micro.gather","scale":1,"mode":"baseline"}`)
	if sr3.ID == sr1.ID {
		t.Fatal("different mode produced the same content hash")
	}
	pollDone(t, ts, sr3.ID)
	if srv.SimRuns() != 2 {
		t.Fatalf("distinct spec did not run: SimRuns = %d, want 2", srv.SimRuns())
	}
}

// TestDiskCacheSurvivesRestart computes a result under one server,
// then serves it from a fresh server sharing the cache directory —
// without re-simulating.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const body = `{"workload":"micro.gather","scale":1}`

	srv1, ts1 := newTestServer(t, Config{CacheDir: dir})
	sr, _ := postRun(t, ts1, body)
	first := pollDone(t, ts1, sr.ID)
	if first.Status != StateDone {
		t.Fatalf("first run failed: %s", first.Error)
	}
	if srv1.SimRuns() != 1 {
		t.Fatalf("SimRuns = %d, want 1", srv1.SimRuns())
	}

	srv2, ts2 := newTestServer(t, Config{CacheDir: dir})
	sr2, _ := postRun(t, ts2, body)
	if !sr2.Cached {
		t.Fatal("restarted server did not report a cache hit")
	}
	v := pollDone(t, ts2, sr2.ID)
	if v.Status != StateDone || !bytes.Equal(v.Result, first.Result) {
		t.Fatal("restarted server served a different result")
	}
	if srv2.SimRuns() != 0 {
		t.Fatalf("restarted server re-simulated: SimRuns = %d, want 0", srv2.SimRuns())
	}
}

// TestConcurrentClients hammers the server with 12 clients over 4
// distinct specs. Coalescing + caching must collapse the work to at
// most one simulation per distinct spec, all clients must observe done
// results, and identical specs must yield identical bytes. Run under
// -race this is the acceptance concurrency check.
func TestConcurrentClients(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	specs := []string{
		`{"workload":"micro.gather","scale":1}`,
		`{"workload":"micro.scatter","scale":1}`,
		`{"workload":"micro.rmw","scale":1}`,
		`{"workload":"micro.gather.spd","scale":1}`,
	}
	const clientsPerSpec = 3
	type outcome struct {
		spec   int
		id     string
		result []byte
		err    error
	}
	results := make(chan outcome, len(specs)*clientsPerSpec)
	var wg sync.WaitGroup
	for si := range specs {
		for c := 0; c < clientsPerSpec; c++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(specs[si]))
				if err != nil {
					results <- outcome{spec: si, err: err}
					return
				}
				var sr submitResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					results <- outcome{spec: si, err: err}
					return
				}
				// Poll inline (no t.Fatal off the test goroutine).
				deadline := time.Now().Add(60 * time.Second)
				for time.Now().Before(deadline) {
					r2, err := http.Get(ts.URL + "/v1/runs/" + sr.ID)
					if err != nil {
						results <- outcome{spec: si, err: err}
						return
					}
					var v statusView
					err = json.NewDecoder(r2.Body).Decode(&v)
					r2.Body.Close()
					if err != nil {
						results <- outcome{spec: si, err: err}
						return
					}
					if v.Status.terminal() {
						if v.Status != StateDone {
							results <- outcome{spec: si, err: fmt.Errorf("terminal state %s: %s", v.Status, v.Error)}
						} else {
							results <- outcome{spec: si, id: sr.ID, result: v.Result}
						}
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				results <- outcome{spec: si, err: fmt.Errorf("timed out")}
			}(si)
		}
	}
	wg.Wait()
	close(results)
	bySpec := make(map[int][]outcome)
	for o := range results {
		if o.err != nil {
			t.Fatalf("client on spec %d: %v", o.spec, o.err)
		}
		bySpec[o.spec] = append(bySpec[o.spec], o)
	}
	for si, outs := range bySpec {
		if len(outs) != clientsPerSpec {
			t.Fatalf("spec %d: %d outcomes, want %d", si, len(outs), clientsPerSpec)
		}
		for _, o := range outs[1:] {
			if o.id != outs[0].id {
				t.Fatalf("spec %d: ids diverged (%s vs %s)", si, o.id, outs[0].id)
			}
			if !bytes.Equal(o.result, outs[0].result) {
				t.Fatalf("spec %d: results diverged", si)
			}
		}
	}
	if n := srv.SimRuns(); n != int64(len(specs)) {
		t.Fatalf("SimRuns = %d, want %d (one per distinct spec)", n, len(specs))
	}
}

// TestEventsStreamTerminal subscribes to a run's SSE stream and
// asserts the stream ends with the job's terminal event.
func TestEventsStreamTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","scale":1}`)
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	if last := events[len(events)-1]; last != string(StateDone) {
		t.Fatalf("last event = %q, want done (full stream: %v)", last, events)
	}
	for _, name := range events[:len(events)-1] {
		if name != "progress" {
			t.Fatalf("unexpected mid-stream event %q (stream: %v)", name, events)
		}
	}
	// A late subscriber to the finished job gets an immediate terminal
	// event and EOF.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if !strings.Contains(buf.String(), "event: done") {
		t.Fatalf("late subscriber stream missing terminal event: %q", buf.String())
	}
}

// TestFigureJob runs a whole-figure batch (figure 9 restricted to IS)
// and checks the figure payload plus per-run progress counting.
func TestFigureJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{FigWorkers: 2})
	resp, err := http.Get(ts.URL + "/v1/figures/9?scale=1&workloads=IS")
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
	if fr.Figure != "9" || len(fr.Series) != 1 {
		t.Fatalf("figure result = %q with %d series, want 9 with 1", fr.Figure, len(fr.Series))
	}
	if !strings.Contains(fr.Text, "IS") {
		t.Fatalf("figure text missing workload row:\n%s", fr.Text)
	}
	// Figure 9 runs every mode for the workload; each counts as a
	// simulation.
	if srv.SimRuns() < 2 {
		t.Fatalf("SimRuns = %d, want >= 2 (multiple modes)", srv.SimRuns())
	}
	// Re-request: same query string is the same content hash.
	before := srv.SimRuns()
	resp2, err := http.Get(ts.URL + "/v1/figures/9?scale=1&workloads=IS")
	if err != nil {
		t.Fatal(err)
	}
	var sr2 submitResponse
	json.NewDecoder(resp2.Body).Decode(&sr2)
	resp2.Body.Close()
	if sr2.ID != sr.ID {
		t.Fatalf("identical figure request hashed differently")
	}
	pollDone(t, ts, sr2.ID)
	if srv.SimRuns() != before {
		t.Fatalf("figure re-request re-simulated: %d -> %d", before, srv.SimRuns())
	}
}

// TestCancelQueuedJob fills the single worker with one job and cancels
// the one waiting behind it.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	srA, _ := postRun(t, ts, `{"workload":"micro.scatter","scale":1}`)
	srB, _ := postRun(t, ts, `{"workload":"micro.rmw","scale":1}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+srB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v statusView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	vB := pollDone(t, ts, srB.ID)
	vA := pollDone(t, ts, srA.ID)
	if vA.Status != StateDone {
		t.Fatalf("job A: status %s, want done", vA.Status)
	}
	// B is either canceled before execution, or — if the worker grabbed
	// it before the DELETE landed — it just ran to completion. Both are
	// valid; what must not happen is a stuck or failed state.
	if vB.Status != StateCanceled && vB.Status != StateDone {
		t.Fatalf("job B: status %s, want canceled or done", vB.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"nope"}`},
		{"bad mode", `{"workload":"micro.gather","mode":"turbo"}`},
		{"bad override", `{"workload":"micro.gather","overrides":{"cores":999}}`},
		{"instances over cores", `{"workload":"micro.gather","overrides":{"cores":2,"instances":4}}`},
		{"malformed json", `{`},
		{"scale over the cap", `{"workload":"micro.gather","scale":65}`},
		{"max_cycles over the default", `{"workload":"micro.gather","overrides":{"max_cycles":2000000001}}`},
		{"max_cycles zero", `{"workload":"micro.gather","overrides":{"max_cycles":0}}`},
		{"llc_bytes one", `{"workload":"micro.gather","overrides":{"llc_bytes":1}}`},
		{"llc_bytes negative", `{"workload":"micro.gather","overrides":{"llc_bytes":-1}}`},
		{"tile_elems negative", `{"workload":"micro.gather","overrides":{"tile_elems":-4}}`},
	}
	for _, tc := range cases {
		if _, code := postRun(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status = %d, want 404", resp.StatusCode)
	}
	for _, q := range []string{"99", "9?scale=65"} {
		resp, err = http.Get(ts.URL + "/v1/figures/" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("figure %s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestResolveBounds pins the edges of the request bounds: scale up to
// maxScale and max_cycles up to the default limit resolve; one past
// either does not.
func TestResolveBounds(t *testing.T) {
	def := uint64(exp.Default(exp.DX).MaxCycles)
	for _, tc := range []struct {
		scale     int
		maxCycles uint64
		ok        bool
	}{
		{maxScale, def, true},
		{maxScale + 1, def, false},
		{1, def + 1, false},
		{1, 1, true},
	} {
		mc := tc.maxCycles
		rr := runRequest{Workload: "micro.gather", Scale: tc.scale, Overrides: &Overrides{MaxCycles: &mc}}
		spec, err := rr.resolve()
		if (err == nil) != tc.ok {
			t.Errorf("scale %d, max_cycles %d: err = %v, want ok=%v", tc.scale, tc.maxCycles, err, tc.ok)
		}
		if err == nil && (spec.Scale != tc.scale || uint64(spec.Config.MaxCycles) != mc) {
			t.Errorf("resolved scale %d, max_cycles %d; want %d, %d", spec.Scale, spec.Config.MaxCycles, tc.scale, mc)
		}
	}
	// llc_bytes and tile_elems resolve at both edges of their ranges
	// and not one past either.
	for _, tc := range []struct {
		llc, tile int
		ok        bool
	}{
		{minLLCBytes, minTileElems, true},
		{maxLLCBytes, maxTileElems, true},
		{minLLCBytes - 1, minTileElems, false},
		{maxLLCBytes + 1, minTileElems, false},
		{minLLCBytes, minTileElems - 1, false},
		{minLLCBytes, maxTileElems + 1, false},
	} {
		llc, tile := tc.llc, tc.tile
		rr := runRequest{Workload: "micro.gather", Overrides: &Overrides{LLCBytes: &llc, TileElems: &tile}}
		spec, err := rr.resolve()
		if (err == nil) != tc.ok {
			t.Errorf("llc_bytes %d, tile_elems %d: err = %v, want ok=%v", llc, tile, err, tc.ok)
		}
		if err == nil && (spec.Config.LLCBytes != llc || spec.Config.Accel.Machine.TileElems != tile) {
			t.Errorf("resolved llc_bytes %d, tile_elems %d; want %d, %d",
				spec.Config.LLCBytes, spec.Config.Accel.Machine.TileElems, llc, tile)
		}
	}
}

// TestRangeOverTileFailsJob: graph.pr.pull's 2048-element hub ranges
// do not fit 1024-element tiles. The job fails with the driver's error
// instead of panicking its worker, and the daemon keeps serving.
func TestRangeOverTileFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, code := postRun(t, ts, `{"workload":"graph.pr.pull","mode":"dx100","overrides":{"tile_elems":1024}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateFailed || !strings.Contains(v.Error, "exceeds the 1024-element tile") {
		t.Fatalf("job = %s (%q), want failed on the tile", v.Status, v.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the failed job: status = %d", resp.StatusCode)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	// One worker, depth 1: the first job occupies the worker, the
	// second fills the queue, the third must bounce with Retry-After.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	postRun(t, ts, `{"workload":"micro.gather","scale":1}`)
	postRun(t, ts, `{"workload":"micro.scatter","scale":1}`)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"micro.rmw","scale":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The worker may have already drained the queue; only a full queue
	// yields 503. Accept 202 but verify the 503 contract when it fires.
	if resp.StatusCode == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After header")
		}
	} else if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 or 503", resp.StatusCode)
	}
}

// TestShutdownDrains submits work, shuts down gracefully, and asserts
// the accepted job completed and later submissions are refused.
func TestShutdownDrains(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","scale":1}`)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("accepted job after shutdown: status %s, want done", v.Status)
	}
	if _, code := postRun(t, ts, `{"workload":"micro.rmw","scale":1}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status = %d, want 503", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if ok, _ := h["ok"].(bool); !ok {
		t.Fatalf("healthz ok = %v, want true", h["ok"])
	}
	for _, k := range []string{"queued", "running", "workers", "queue_depth", "cache_entries", "sim_runs"} {
		if _, present := h[k]; !present {
			t.Errorf("healthz missing %q", k)
		}
	}
}
