package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dx100/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		c := Context{Trace: NewTraceID(), Span: NewSpanID(), Flags: byte(i * 5)}
		h := c.Traceparent()
		if len(h) != 55 {
			t.Fatalf("Traceparent() = %q, len %d, want 55", h, len(h))
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if got != c {
			t.Fatalf("round trip: got %+v, want %+v", got, c)
		}
	}
}

func TestParseTraceparentW3CExample(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", c.Trace)
	}
	if c.Span.String() != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", c.Span)
	}
	if c.Flags != 1 {
		t.Errorf("flags = %#x, want 1", c.Flags)
	}
	if c.Traceparent() != h {
		t.Errorf("re-render = %q, want %q", c.Traceparent(), h)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"short":               "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
		"uppercase trace":     "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"uppercase span":      "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",
		"zero trace id":       "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":        "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"version ff":          "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"bad delimiter":       "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"delimiter shifted":   "00-4bf92f3577b34da6a3ce929d0e0e473-600f067aa0ba902b7-01",
		"non-hex trace":       "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",
		"non-hex flags":       "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
		"v00 with trailer":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"v01 trailer no dash": "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted a malformed header", name, h)
		}
	}
}

// TestParseTraceparentForwardCompat pins the W3C rule for unknown
// higher versions: parse the version-00 prefix, allow '-'-separated
// trailing data.
func TestParseTraceparentForwardCompat(t *testing.T) {
	c, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future")
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", c.Trace)
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add(strings.Repeat("-", 55))
	f.Fuzz(func(t *testing.T, h string) {
		c, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		// Anything accepted must be valid and re-render to a header that
		// parses back to the same ids.
		if !c.Valid() {
			t.Fatalf("accepted invalid context from %q", h)
		}
		got, err := ParseTraceparent(c.Traceparent())
		if err != nil {
			t.Fatalf("re-render of accepted %q failed to parse: %v", h, err)
		}
		if got.Trace != c.Trace || got.Span != c.Span || got.Flags != c.Flags {
			t.Fatalf("re-render of %q round-tripped to %+v, want %+v", h, got, c)
		}
	})
}

// TestNilRecorderZeroAllocs pins the disabled state's cost: a nil
// recorder must start, annotate and end spans without allocating — the
// package doc and the engine's hot paths rely on it.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Start("op", Context{})
		sp.SetStatus(1)
		_ = sp.Context()
		sp.End()
		asp := rec.StartAsync("op", Context{})
		asp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder span lifecycle allocates %v/op, want 0", allocs)
	}
}

// newTestRecorder pins the clock so span durations are deterministic.
func newTestRecorder(step time.Duration) *Recorder {
	r := NewRecorder(0)
	base := time.Unix(0, 0)
	r.epoch = base
	tick := 0
	r.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * step)
	}
	return r
}

func TestRecorderParentLinks(t *testing.T) {
	rec := newTestRecorder(time.Millisecond)
	root := rec.Start("root", Context{})
	child := rec.Start("child", root.Context())
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child did not inherit the root's trace id")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused the root's span id")
	}
	child.End()
	root.End()

	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Ends emit in end order: child first.
	if evs[0].Src != "child" || evs[1].Src != "root" {
		t.Fatalf("event order = %s, %s", evs[0].Src, evs[1].Src)
	}
	if evs[0].Kind != obs.EvSpan {
		t.Fatalf("child kind = %v, want EvSpan", evs[0].Kind)
	}
	if got, want := uint64(evs[0].Args[3]), root.Context().Span.bits(); got != want {
		t.Fatalf("child parent_span_id = %#x, want root %#x", got, want)
	}
	if evs[1].Args[3] != 0 {
		t.Fatalf("root parent_span_id = %#x, want 0", evs[1].Args[3])
	}
	if evs[0].Args[4] <= 0 {
		t.Fatalf("child dur_us = %d, want > 0", evs[0].Args[4])
	}
}

// TestPhaseSpans: phase begin/end pairs become "phase.<name>" spans,
// each parented on the innermost open phase and the outermost on the
// given root, all in the root's trace; an end with no open phase is
// ignored, and a nil recorder installs no hook.
func TestPhaseSpans(t *testing.T) {
	if PhaseSpans(nil, Context{}) != nil {
		t.Fatal("nil recorder returned a non-nil hook")
	}
	rec := newTestRecorder(time.Millisecond)
	root := rec.Start("run", Context{})
	phase := PhaseSpans(rec, root.Context())
	phase("stray", false) // nothing open: ignored
	phase("warmup", true)
	phase("warmup", false)
	phase("sample.detail", true)
	phase("inner", true)
	phase("inner", false)
	phase("sample.detail", false)
	phase("sample.detail", false) // nothing open again: ignored
	root.End()

	evs := rec.Events()
	var names []string
	for _, ev := range evs {
		names = append(names, ev.Src)
	}
	// Spans emit in end order.
	if got, want := strings.Join(names, ","), "phase.warmup,phase.inner,phase.sample.detail,run"; got != want {
		t.Fatalf("spans = %s, want %s", got, want)
	}
	rootID := root.Context().Span.bits()
	parents := map[string]uint64{
		"phase.warmup":        rootID,
		"phase.inner":         uint64(evs[2].Args[2]), // phase.sample.detail's span id
		"phase.sample.detail": rootID,
	}
	for _, ev := range evs[:3] {
		if got, want := uint64(ev.Args[3]), parents[ev.Src]; got != want {
			t.Errorf("%s parent_span_id = %#x, want %#x", ev.Src, got, want)
		}
		if ev.Args[0] != evs[3].Args[0] || ev.Args[1] != evs[3].Args[1] {
			t.Errorf("%s left the root's trace", ev.Src)
		}
	}
}

func TestAsyncSpanEmitsBeginEndPair(t *testing.T) {
	rec := newTestRecorder(time.Millisecond)
	sp := rec.StartAsync("job", Context{})
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != obs.EvSpanBegin {
		t.Fatalf("open async span: events = %+v, want one EvSpanBegin", evs)
	}
	sp.End()
	sp.End() // idempotent
	evs = rec.Events()
	if len(evs) != 2 || evs[1].Kind != obs.EvSpanEnd {
		t.Fatalf("events after End = %d (last kind %v), want 2 with EvSpanEnd", len(evs), evs[len(evs)-1].Kind)
	}
	if evs[0].Args[2] != evs[1].Args[2] {
		t.Fatal("begin/end span ids differ — Chrome cannot pair them")
	}
}

// chromeDoc decodes a Chrome trace_event JSON document.
type chromeDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

// TestWriteChromeValidJSON renders a small trace and checks the
// document decodes as trace_event JSON with the right phases, ids and
// args — the same assertion CI runs against the live /trace endpoint.
func TestWriteChromeValidJSON(t *testing.T) {
	rec := newTestRecorder(time.Millisecond)
	job := rec.StartAsync("job.run", Context{})
	run := rec.Start("run", job.Context())
	run.SetStatus(7)
	run.End()
	job.End()

	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		for _, k := range []string{"name", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("trace event missing %q: %v", k, ev)
			}
		}
	}
	if phases["b"] != 1 || phases["e"] != 1 || phases["X"] != 1 {
		t.Fatalf("phases = %v, want one each of b/e/X", phases)
	}
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "run" {
			args := ev["args"].(map[string]any)
			if args["trace_id"] != job.Context().Trace.String() {
				t.Errorf("run trace_id = %v, want %s", args["trace_id"], job.Context().Trace)
			}
			if args["parent_span_id"] != job.Context().Span.String() {
				t.Errorf("run parent_span_id = %v, want %s", args["parent_span_id"], job.Context().Span)
			}
			if args["status"] != float64(7) {
				t.Errorf("run status = %v, want 7", args["status"])
			}
			if ev["dur"] == nil {
				t.Error("complete event missing dur")
			}
		}
	}
}

// TestNilRecorderWriteChrome pins the disabled recorder's output: an
// empty but still valid trace document.
func TestNilRecorderWriteChrome(t *testing.T) {
	var rec *Recorder
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder document invalid: %v\n%q", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil recorder has %d events", len(doc.TraceEvents))
	}
}

// TestSpanJSONLEncoding exercises the sink's JSONL encoder for span
// kinds (the Chrome path is covered above).
func TestSpanJSONLEncoding(t *testing.T) {
	rec := newTestRecorder(time.Millisecond)
	root := rec.Start("root", Context{})
	child := rec.Start("child", root.Context())
	child.End()
	root.End()
	var buf bytes.Buffer
	rec.mu.Lock()
	err := rec.sink.WriteJSONL(&buf)
	rec.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if row["cat"] != "span" {
			t.Errorf("cat = %v, want span", row["cat"])
		}
		args := row["args"].(map[string]any)
		tid, _ := args["trace_id"].(string)
		if len(tid) != 32 {
			t.Errorf("trace_id %q is not 32 hex digits", tid)
		}
		sid, _ := args["span_id"].(string)
		if len(sid) != 16 {
			t.Errorf("span_id %q is not 16 hex digits", sid)
		}
	}
	// The child line (emitted first) must carry its parent link; the
	// root line must not.
	if !strings.Contains(lines[0], "parent_span_id") {
		t.Error("child JSONL line missing parent_span_id")
	}
	if strings.Contains(lines[1], "parent_span_id") {
		t.Error("root JSONL line has a parent_span_id")
	}
}
