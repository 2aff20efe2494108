package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/span"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state can no longer change.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// event is one server-sent event: a name, a JSON payload, and the
// job's monotonically increasing sequence number, which becomes the
// SSE `id:` field so a reconnecting client resumes exactly where it
// left off (Last-Event-ID).
type event struct {
	seq  uint64
	name string
	data json.RawMessage
}

// ledgerCap bounds the per-job replay ledger. Events beyond it age
// out oldest-first; a client resuming from before the ledger's start
// simply misses those rows, the same as any SSE stream under
// retention pressure.
const ledgerCap = 4096

// job is one submitted experiment. Its id is the content address of
// the fully-resolved spec, which is what makes identical submissions
// coalesce: the jobs map keys on id, so the second submitter finds the
// first one's job and simply observes it.
type job struct {
	id      string
	kind    string // "run" or "figure"
	spec    exp.Spec
	fig     figSpec
	created time.Time

	// Lifecycle tracing: spans records the job's phase spans (served at
	// GET /v1/runs/{id}/trace), trace is the job's root span context
	// (echoed in the status view and correlated into the slog lines).
	// rootSpan is the async whole-job span, queueSpan covers
	// submit→start. All are nil/zero for jobs built outside the HTTP
	// handlers; every use is nil-safe.
	spans     *span.Recorder
	trace     span.Context
	rootSpan  *span.Span
	queueSpan *span.Span

	mu         sync.Mutex
	state      State
	wantCancel bool
	result     json.RawMessage
	errMsg     string
	progress   json.RawMessage // most recent progress payload, if any
	timeline   json.RawMessage // finished timeline doc for profiled runs
	started    time.Time
	finished   time.Time
	cancel     context.CancelFunc
	subs       map[chan event]struct{}
	done       chan struct{} // closed on entering a terminal state
	seq        uint64        // last assigned event sequence number
	ledger     []event       // replay window for Last-Event-ID resume
}

func newJob(id, kind string) *job {
	return &job{
		id:      id,
		kind:    kind,
		state:   StateQueued,
		created: time.Now().UTC(),
		subs:    make(map[chan event]struct{}),
		done:    make(chan struct{}),
	}
}

// start transitions queued -> running, wiring the cancel func. It
// reports false when the job was canceled while queued (the worker
// then skips it). Ends the queue-wait span.
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.cancel = cancel
	j.queueSpan.End()
	j.queueSpan = nil
	return true
}

// finish records the terminal state, wakes status pollers and streams
// the final event to subscribers, and closes the job's lifecycle
// spans.
func (j *job) finish(result json.RawMessage, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	final := StateDone
	if err != nil {
		final = StateFailed
		j.errMsg = err.Error()
		if j.cancelRequested() {
			final = StateCanceled
		}
	}
	j.state = final
	j.result = result
	j.finished = time.Now().UTC()
	payload, _ := json.Marshal(map[string]string{"id": j.id, "status": string(final)})
	j.publishLocked(string(final), payload)
	j.endSpansLocked(final)
	close(j.done)
	j.mu.Unlock()
}

// canceledWhileQueued marks a queued job canceled before any worker
// picked it up.
func (j *job) canceledWhileQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCanceled
	j.errMsg = "canceled before execution"
	payload, _ := json.Marshal(map[string]string{"id": j.id, "status": string(StateCanceled)})
	j.publishLocked(string(StateCanceled), payload)
	j.endSpansLocked(StateCanceled)
	close(j.done)
	return true
}

// endSpansLocked closes the job's lifecycle spans with a status code
// (0 done, 1 failed, 2 canceled). Must be called with j.mu held; every
// span method is nil-safe so untraced jobs cost nothing.
func (j *job) endSpansLocked(final State) {
	status := int64(0)
	switch final {
	case StateFailed:
		status = 1
	case StateCanceled:
		status = 2
	}
	j.queueSpan.End()
	j.queueSpan = nil
	j.rootSpan.SetStatus(status)
	j.rootSpan.End()
	j.rootSpan = nil
}

// requestCancel cancels a running job's context (a queued job is
// handled by canceledWhileQueued). Reports whether anything happened.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	cancel := j.cancel
	running := j.state == StateRunning
	j.wantCancel = true
	j.mu.Unlock()
	if running && cancel != nil {
		cancel()
		return true
	}
	return false
}

// cancelRequested must be called with j.mu held.
func (j *job) cancelRequested() bool { return j.wantCancel }

// publishLocked stamps the next sequence number on an event, appends
// it to the replay ledger and fans it out to subscribers. Slow
// subscribers drop live events but recover them on reconnect via
// Last-Event-ID replay. Must be called with j.mu held.
func (j *job) publishLocked(name string, data json.RawMessage) {
	j.seq++
	ev := event{seq: j.seq, name: name, data: data}
	j.ledger = append(j.ledger, ev)
	if len(j.ledger) >= 2*ledgerCap {
		// Amortized trim: copy the newest ledgerCap rows down rather
		// than re-slicing, so the aged-out prefix is actually freed.
		n := copy(j.ledger, j.ledger[len(j.ledger)-ledgerCap:])
		j.ledger = j.ledger[:n]
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// publishProgress stores the latest progress payload and fans it out
// to subscribers.
func (j *job) publishProgress(data json.RawMessage) {
	j.mu.Lock()
	j.progress = data
	j.publishLocked("progress", data)
	j.mu.Unlock()
}

// publishTimeline fans one sampled telemetry row out to subscribers as
// a `timeline` event. The complete timeline is also served after the
// run via GET /v1/runs/{id}/timeline.
func (j *job) publishTimeline(data json.RawMessage) {
	j.mu.Lock()
	j.publishLocked("timeline", data)
	j.mu.Unlock()
}

// replaySince snapshots the ledger rows with sequence numbers above
// lastID, for an SSE client resuming with Last-Event-ID.
func (j *job) replaySince(lastID uint64) []event {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The ledger is sorted by seq; find the first row past lastID.
	i := len(j.ledger)
	for i > 0 && j.ledger[i-1].seq > lastID {
		i--
	}
	out := make([]event, len(j.ledger)-i)
	copy(out, j.ledger[i:])
	return out
}

// setTimeline stores the finished timeline document for the timeline
// endpoint.
func (j *job) setTimeline(doc json.RawMessage) {
	j.mu.Lock()
	j.timeline = doc
	j.mu.Unlock()
}

// subscribe registers an event channel; the caller must unsubscribe.
func (j *job) subscribe() chan event {
	ch := make(chan event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// statusView is the GET /v1/runs/{id} payload.
type statusView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Status   State           `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Spec     *exp.Spec       `json:"spec,omitempty"`
	Figure   *figSpec        `json:"figure,omitempty"`
	Progress json.RawMessage `json:"progress,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	TraceID  string          `json:"trace_id,omitempty"`
}

// view snapshots the job for the status endpoint.
func (j *job) view() statusView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := statusView{
		ID:       j.id,
		Kind:     j.kind,
		Status:   j.state,
		Created:  j.created,
		Progress: j.progress,
		Result:   j.result,
		Error:    j.errMsg,
	}
	if j.trace.Valid() {
		v.TraceID = j.trace.Trace.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.kind == "run" {
		sp := j.spec
		v.Spec = &sp
	} else {
		f := j.fig
		v.Figure = &f
	}
	return v
}
