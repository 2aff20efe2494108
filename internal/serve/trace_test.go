package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/span"
)

// TestSpanResultNeutral is the tentpole acceptance pin: a run served
// with tracing, profiling and hub/tail hit attribution all active must
// produce Result bytes identical to the bare exp.Run + exp.ResultJSON
// path. The skewed graph workload carries a HotClass classifier, so
// this exercises the profiler-private class counters too — none of the
// observability machinery may leak into the wire form.
func TestSpanResultNeutral(t *testing.T) {
	_, ts := newTestServer(t, Config{ProfileWindow: 4096})
	body := `{"workload":"graph.pr.pull","mode":"dx100","scale":1}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// A caller-supplied traceparent: the job's trace must continue it.
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed, err := span.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil || echoed.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("response traceparent %q does not continue the request trace (%v)", resp.Header.Get("traceparent"), err)
	}
	if sr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("submit trace_id = %q, want the caller's trace", sr.TraceID)
	}

	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("status = %s (err %q)", v.Status, v.Error)
	}
	if v.TraceID != sr.TraceID {
		t.Fatalf("status trace_id = %q, want %q", v.TraceID, sr.TraceID)
	}
	// The job's root span parents on the request span echoed above.
	tr, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Parent string `json:"parent_span_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(tr.Body).Decode(&doc)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var parents []string
	for _, ev := range doc.TraceEvents {
		if ev.Name == "job.run" && ev.Ph == "b" {
			parents = append(parents, ev.Args.Parent)
		}
	}
	if len(parents) != 1 || parents[0] != echoed.Span.String() {
		t.Fatalf("job.run parents on %v, want the echoed request span %s", parents, echoed.Span)
	}

	res, err := exp.Run("graph.pr.pull", 1, exp.Default(exp.DX))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("traced+profiled result differs from bare run:\nserver: %s\nbare:   %s", v.Result, want)
	}
}

// TestTraceEndpointChromeJSON submits a run and asserts the trace
// endpoint serves a valid Chrome trace_event document containing the
// lifecycle spans with consistent trace ids.
func TestTraceEndpointChromeJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, code := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("status = %s (err %q)", v.Status, v.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace endpoint is not valid Chrome trace_event JSON: %v", err)
	}
	names := map[string]bool{}
	traces := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.TS == nil {
			t.Fatalf("event %q missing ph/ts: %+v", ev.Name, ev)
		}
		names[ev.Name] = true
		if tid, ok := ev.Args["trace_id"].(string); ok {
			traces[tid] = true
		}
	}
	for _, want := range []string{"job.run", "cache.lookup", "queue.wait", "run", "encode", "cache.put"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	if len(traces) != 1 {
		t.Errorf("spans spread over %d trace ids, want 1: %v", len(traces), traces)
	}
	if !traces[sr.TraceID] {
		t.Errorf("span trace ids %v do not include the submit trace %q", traces, sr.TraceID)
	}
}

// sseClient reads one SSE stream, collecting (id, event, data) frames.
type sseFrame struct {
	id, name, data string
}

func readSSE(t *testing.T, resp *http.Response, max int, dur time.Duration) []sseFrame {
	t.Helper()
	var frames []sseFrame
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		var cur sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = line[4:]
			case strings.HasPrefix(line, "event: "):
				cur.name = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[6:]
			case line == "":
				if cur.name != "" {
					frames = append(frames, cur)
					cur = sseFrame{}
					if len(frames) >= max {
						return
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(dur):
	}
	resp.Body.Close()
	<-done
	return frames
}

// TestEventsResumeWithLastEventID drives the reconnect path: consume
// the full stream once, then reconnect with a Last-Event-ID in the
// middle and assert the replay picks up exactly after it.
func TestEventsResumeWithLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{ProfileWindow: 2048})
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	pollDone(t, ts, sr.ID)

	// Ask for the whole ledger: a reconnecting EventSource always
	// carries a Last-Event-ID, and 0 means "from the beginning".
	req0, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+sr.ID+"/events", nil)
	req0.Header.Set("Last-Event-ID", "0")
	resp, err := http.DefaultClient.Do(req0)
	if err != nil {
		t.Fatal(err)
	}
	all := readSSE(t, resp, 10_000, 10*time.Second)
	if len(all) < 3 {
		t.Fatalf("first stream too short to test resume: %d frames", len(all))
	}
	last := all[len(all)-1]
	if !State(last.name).terminal() {
		t.Fatalf("stream did not end with a terminal event: %+v", last)
	}
	// Sequence ids must be strictly increasing on ledger frames.
	prev := uint64(0)
	for _, f := range all {
		if f.id == "" {
			continue
		}
		var n uint64
		fmt.Sscanf(f.id, "%d", &n)
		if n <= prev {
			t.Fatalf("SSE ids not increasing: %d after %d", n, prev)
		}
		prev = n
	}

	// Reconnect from the middle.
	mid := all[len(all)/2]
	if mid.id == "" {
		mid = all[1]
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+sr.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", mid.id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, resp2, 10_000, 10*time.Second)
	if len(resumed) == 0 {
		t.Fatal("resumed stream empty")
	}
	var midSeq uint64
	fmt.Sscanf(mid.id, "%d", &midSeq)
	for _, f := range resumed {
		if f.id == "" {
			continue
		}
		var n uint64
		fmt.Sscanf(f.id, "%d", &n)
		if n <= midSeq {
			t.Fatalf("resume replayed seq %d, at or before Last-Event-ID %d", n, midSeq)
		}
	}
	if last := resumed[len(resumed)-1]; !State(last.name).terminal() {
		t.Fatalf("resumed stream did not reach the terminal event: %+v", last)
	}
}

// TestTimelineLiveSSE asserts the timeline endpoint streams sampled
// rows when asked for an event stream, and still serves the JSON
// document otherwise.
func TestTimelineLiveSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{ProfileWindow: 2048})
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	pollDone(t, ts, sr.ID)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+sr.ID+"/timeline", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("live timeline content type = %q", ct)
	}
	frames := readSSE(t, resp, 10_000, 10*time.Second)
	sawRow := false
	for _, f := range frames {
		switch {
		case f.name == "timeline":
			sawRow = true
			var row timelineRow
			if err := json.Unmarshal([]byte(f.data), &row); err != nil {
				t.Fatalf("timeline frame %q: %v", f.data, err)
			}
		case f.name == "progress":
			t.Fatalf("live timeline leaked a progress frame: %+v", f)
		}
	}
	if !sawRow {
		t.Fatal("live timeline stream carried no rows")
	}
	if !State(frames[len(frames)-1].name).terminal() {
		t.Fatalf("live timeline did not close with the terminal event")
	}

	// Plain GET still returns the document.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("timeline doc status = %d", resp2.StatusCode)
	}
	var doc timelineDoc
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil || doc.Timeline == nil {
		t.Fatalf("timeline doc decode: %v (timeline nil: %v)", err, doc.Timeline == nil)
	}
}

// TestDashboardServed asserts the embedded dashboard ships with the
// binary and references only same-origin endpoints.
func TestDashboardServed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	html := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "/metrics.json", "/v1/runs", "EventSource"} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	for _, forbid := range []string{"http://", "https://", "<script src", "@import"} {
		if strings.Contains(html, forbid) {
			t.Errorf("dashboard references an external asset (%q) — it must be self-contained", forbid)
		}
	}
}

// TestMetricsJSON asserts the dashboard's polling endpoint exposes the
// runtime gauges and quantiles.
func TestMetricsJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	pollDone(t, ts, sr.ID)
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Counters  map[string]float64 `json:"counters"`
		Gauges    map[string]float64 `json:"gauges"`
		Quantiles map[string]float64 `json:"job_duration_quantiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Gauges["go.goroutines"] <= 0 {
		t.Errorf("go.goroutines gauge = %v", m.Gauges["go.goroutines"])
	}
	if m.Gauges["go.heap_alloc_bytes"] <= 0 {
		t.Errorf("go.heap_alloc_bytes gauge = %v", m.Gauges["go.heap_alloc_bytes"])
	}
	if m.Counters["jobs.done"] != 1 {
		t.Errorf("jobs.done = %v, want 1", m.Counters["jobs.done"])
	}
	for _, k := range []string{"p50", "p95", "p99"} {
		if _, ok := m.Quantiles[k]; !ok {
			t.Errorf("job_duration_quantiles missing %s", k)
		}
	}
}

// TestListRuns covers the dashboard's job table source.
func TestListRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, _ := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	pollDone(t, ts, sr.ID)
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Runs []statusView `json:"runs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Runs[0].ID != sr.ID || out.Runs[0].Status != StateDone {
		t.Fatalf("runs = %+v", out.Runs)
	}
	if out.Runs[0].TraceID == "" {
		t.Error("run summary missing trace_id")
	}
	for _, key := range []string{`"spec"`, `"result"`} {
		if bytes.Contains(body, []byte(key)) {
			t.Errorf("run list carries %s: %s", key, body)
		}
	}
}

// TestPprofGated asserts the profiling surface only exists behind the
// config flag.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{Pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: status = %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "goroutine") {
		t.Fatalf("pprof goroutine dump unexpected: %.120s", buf.String())
	}
}

// TestMiddlewareEmitsNewTrace asserts a request without a traceparent
// still gets a fresh valid one echoed back.
func TestMiddlewareEmitsNewTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("traceparent")
	if _, err := span.ParseTraceparent(tp); err != nil {
		t.Fatalf("response traceparent %q invalid: %v", tp, err)
	}
}
