package span

import (
	"io"
	"sync"
	"time"

	"dx100/internal/obs"
)

// Recorder collects one trace's spans into a ring-buffered obs sink. The sink itself is single-goroutine by
// contract, so the recorder serializes emissions behind a mutex —
// spans start and end on HTTP handler and worker goroutines
// concurrently.
//
// Timestamps are microseconds since the recorder's epoch (its
// creation), stored in the event Cycle field; the Chrome encoder's ts
// unit is microseconds, so recorded spans lay out in real time in
// Perfetto.
type Recorder struct {
	mu    sync.Mutex
	sink  *obs.Sink
	epoch time.Time
	now   func() time.Time // test seam; time.Now in production
}

// NewRecorder returns a recorder whose ring keeps the most recent cap
// spans (obs.DefaultSinkCap when cap <= 0). A nil *Recorder is the
// disabled state: Start returns nil and every span method no-ops.
func NewRecorder(cap int) *Recorder {
	s := obs.NewSink(cap)
	s.SetMask(obs.MaskSpans)
	return &Recorder{sink: s, epoch: time.Now(), now: time.Now}
}

// Span is one in-flight operation. Created by Recorder.Start (nil when
// the recorder is nil or disabled); finished by End, which emits the
// record. All methods are nil-safe.
type Span struct {
	rec    *Recorder
	name   string
	ctx    Context
	parent SpanID
	start  time.Time
	status int64
	async  bool
	ended  bool
}

// Start opens a span. A valid parent context places the span in the
// parent's trace; an invalid (zero) parent starts a new trace. The
// span is recorded when End is called.
func (r *Recorder) Start(name string, parent Context) *Span {
	return r.start(name, parent, false)
}

// StartAsync opens a long-lived span recorded as a begin/end pair
// (Chrome nestable async events) instead of one complete event, so it
// is visible in the trace even while still open — dx100d uses this for
// the whole-job span that brackets queue wait and execution.
func (r *Recorder) StartAsync(name string, parent Context) *Span {
	return r.start(name, parent, true)
}

func (r *Recorder) start(name string, parent Context, async bool) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, name: name, ctx: Child(parent), start: r.now(), async: async}
	if parent.Valid() {
		s.parent = parent.Span
	}
	if async {
		r.emit(obs.EvSpanBegin, s, s.start, 0)
	}
	return s
}

// Context returns the span's trace position — what a child span or an
// outgoing traceparent header should carry. Zero for a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// SetStatus records a status code rendered into the span's args (the
// daemon stores HTTP statuses and 0/1 job outcomes). Last call wins.
func (s *Span) SetStatus(code int64) {
	if s != nil {
		s.status = code
	}
}

// End finishes the span and emits its record: a complete event for
// Start spans, the closing half of the async pair for StartAsync
// spans. End is idempotent; a nil span no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.ended {
		s.rec.mu.Unlock()
		return
	}
	s.ended = true
	end := s.rec.now()
	if s.async {
		s.rec.emitLocked(obs.EvSpanEnd, s, end, 0)
	} else {
		s.rec.emitLocked(obs.EvSpan, s, s.start, end.Sub(s.start).Microseconds())
	}
	s.rec.mu.Unlock()
}

func (r *Recorder) emit(kind obs.Kind, s *Span, at time.Time, dur int64) {
	r.mu.Lock()
	r.emitLocked(kind, s, at, dur)
	r.mu.Unlock()
}

func (r *Recorder) emitLocked(kind obs.Kind, s *Span, at time.Time, dur int64) {
	ts := at.Sub(r.epoch).Microseconds()
	if ts < 0 {
		ts = 0
	}
	r.sink.Emit(obs.SpanEvent(kind, uint64(ts), s.name,
		s.ctx.Trace.hi(), s.ctx.Trace.lo(), s.ctx.Span.bits(), s.parent.bits(), dur, s.status))
}

// Events snapshots the recorded span events in emission order.
func (r *Recorder) Events() []obs.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink.Events()
}

// WriteChrome writes the recorded spans as a complete Chrome
// trace_event JSON document (the GET /v1/runs/{id}/trace payload).
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n")
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink.WriteChromeTrace(w)
}

// PhaseSpans adapts a run's phase hook (exp.RunOptions.OnPhase):
// strictly nested begin/end pairs become child spans named
// "phase.<name>", each parented on the innermost open phase or, at the
// top level, on parent. An end with no open phase is ignored. A nil
// recorder returns a nil hook, so a disabled trace installs nothing.
// The mutex only guards against a future multi-goroutine phase source.
func PhaseSpans(rec *Recorder, parent Context) func(name string, begin bool) {
	if rec == nil {
		return nil
	}
	var mu sync.Mutex
	var stack []*Span
	return func(name string, begin bool) {
		mu.Lock()
		defer mu.Unlock()
		if begin {
			p := parent
			if n := len(stack); n > 0 {
				p = stack[n-1].Context()
			}
			stack = append(stack, rec.Start("phase."+name, p))
			return
		}
		if n := len(stack); n > 0 {
			stack[n-1].End()
			stack = stack[:n-1]
		}
	}
}
