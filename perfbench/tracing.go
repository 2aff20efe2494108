package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"dx100/internal/obs"
	"dx100/internal/obs/span"
)

// tracer records the traced run's spans from the benchmark's own side
// of every layer call, one trace per operation. A nil *tracer is the
// untraced state: every method no-ops and returns nil spans.
type tracer struct {
	rec    *span.Recorder
	t0     time.Time         // the recorder's epoch, to within its construction
	daemon []json.RawMessage // dx100d job spans, shifted onto this clock
}

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{rec: span.NewRecorder(0), t0: t0}
}

// startOp opens the root span of one operation in a fresh trace.
func (t *tracer) startOp(name string) *span.Span {
	if t == nil {
		return nil
	}
	return t.rec.Start(name, span.Context{})
}

// child opens a span under parent.
func (t *tracer) child(name string, parent *span.Span) *span.Span {
	if t == nil {
		return nil
	}
	return t.rec.Start(name, parent.Context())
}

// phases turns exp.RunOptions.OnPhase begin/end pairs into nested
// "phase.<name>" spans under parent, as dx100d does.
func (t *tracer) phases(parent *span.Span) func(string, bool) {
	if t == nil {
		return func(string, bool) {}
	}
	var stack []*span.Span
	return func(name string, begin bool) {
		if begin {
			p := parent
			if n := len(stack); n > 0 {
				p = stack[n-1]
			}
			stack = append(stack, t.child("phase."+name, p))
			return
		}
		if n := len(stack); n > 0 {
			stack[n-1].End()
			stack = stack[:n-1]
		}
	}
}

// addDaemon merges a GET /v1/runs/{id}/trace document into the span
// file. The daemon's timestamps count from the job's creation; created
// places them on this recorder's clock.
func (t *tracer) addDaemon(doc []byte, created time.Time) ([]spanRec, error) {
	evs, err := chromeEvents(doc)
	if err != nil {
		return nil, err
	}
	shift := created.Sub(t.t0).Microseconds()
	var recs []spanRec
	for _, ev := range evs {
		ts, _ := ev["ts"].(float64)
		ev["ts"] = ts + float64(shift)
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		t.daemon = append(t.daemon, b)
		if r, ok := chromeSpan(ev); ok {
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// chromeEvents parses a Chrome trace_event document.
func chromeEvents(doc []byte) ([]map[string]any, error) {
	var d struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("parse span document: %w", err)
	}
	return d.TraceEvents, nil
}

// spanRec is one complete span, in microseconds.
type spanRec struct {
	Name       string
	Trace      string
	ID, Parent string
	Start, Dur float64
}

// chromeSpan reads a complete ("X") span event.
func chromeSpan(ev map[string]any) (spanRec, bool) {
	if ev["ph"] != "X" {
		return spanRec{}, false
	}
	args, _ := ev["args"].(map[string]any)
	name, _ := ev["name"].(string)
	r := spanRec{Name: name}
	r.Start, _ = ev["ts"].(float64)
	r.Dur, _ = ev["dur"].(float64)
	r.Trace, _ = args["trace_id"].(string)
	r.ID, _ = args["span_id"].(string)
	r.Parent, _ = args["parent_span_id"].(string)
	return r, true
}

// ownSpans returns the benchmark's recorded complete spans.
func (t *tracer) ownSpans() []spanRec {
	var out []spanRec
	for _, ev := range t.rec.Events() {
		if ev.Kind != obs.EvSpan {
			continue
		}
		out = append(out, spanRec{
			Name:   ev.Src,
			Trace:  fmt.Sprintf("%016x%016x", uint64(ev.Args[0]), uint64(ev.Args[1])),
			ID:     fmt.Sprintf("%016x", uint64(ev.Args[2])),
			Parent: fmt.Sprintf("%016x", uint64(ev.Args[3])),
			Start:  float64(ev.Cycle),
			Dur:    float64(ev.Args[4]),
		})
	}
	return out
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of it that its child spans cover.
func selfTimes(spans []spanRec) map[string][]float64 {
	kids := map[string][]spanRec{}
	for _, s := range spans {
		kids[s.Trace+s.Parent] = append(kids[s.Trace+s.Parent], s)
	}
	out := map[string][]float64{}
	for _, s := range spans {
		end := s.Start + s.Dur
		var iv [][2]float64
		for _, c := range kids[s.Trace+s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.Start+c.Dur, end)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
			}
			reach = max(reach, v[1])
		}
		out[s.Name] = append(out[s.Name], s.Dur-covered)
	}
	return out
}

// write stores the span file, loadable in Perfetto, and reports the
// self time per span name.
func (t *tracer) write(rep *report, workload string) error {
	var own bytes.Buffer
	if err := t.rec.WriteChrome(&own); err != nil {
		return err
	}
	evs, err := chromeEvents(own.Bytes())
	if err != nil {
		return err
	}
	all := make([]json.RawMessage, 0, len(evs)+len(t.daemon))
	for _, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		all = append(all, b)
	}
	all = append(all, t.daemon...)
	doc, err := json.Marshal(map[string]any{"displayTimeUnit": "ns", "traceEvents": all})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/trace-%s-%d.json", outDir, workload, rep.seed)
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	self := map[string]float64{}
	for name, v := range selfTimes(t.ownSpans()) {
		var sum float64
		for _, x := range v {
			sum += x
		}
		self[name] = sum / 1000
	}
	rep.extra["span_file"] = path
	rep.extra["span_self_ms_total"] = self
	fmt.Printf("span file: %s\n", path)
	return nil
}

// rtDelta is the Go runtime's work over an interval.
type rtDelta struct {
	AllocBytes float64 // heap bytes allocated
	GCs        float64 // completed GC cycles
	GCCPU      float64 // CPU seconds spent in GC
	CPU        float64 // CPU seconds available to the process (all classes)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime counters; zero when untraced.
func (t *tracer) readRuntime() rtDelta {
	if t == nil {
		return rtDelta{}
	}
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtDelta{v(0), v(1), v(2), v(3)}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.AllocBytes - b.AllocBytes, a.GCs - b.GCs, a.GCCPU - b.GCCPU, a.CPU - b.CPU}
}

func (a rtDelta) add(b rtDelta) rtDelta {
	return rtDelta{a.AllocBytes + b.AllocBytes, a.GCs + b.GCs, a.GCCPU + b.GCCPU, a.CPU + b.CPU}
}
