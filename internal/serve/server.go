// Package serve implements dx100d, the experiment service: a
// long-running HTTP daemon that schedules simulator runs through a
// bounded FIFO channel, deduplicates identical submissions onto one
// in-flight job (singleflight keyed by the spec's content hash),
// caches results in a content-addressed in-memory + on-disk store, and
// streams per-run progress as server-sent events.
//
// The wire surface (all JSON):
//
//	POST   /v1/runs            submit {workload, mode, scale, overrides}
//	GET    /v1/runs/{id}       job status + Result
//	GET    /v1/runs/{id}/events  SSE progress stream
//	GET    /v1/runs/{id}/metrics per-run counters, Prometheus text
//	DELETE /v1/runs/{id}       cancel a queued or running job
//	GET    /v1/figures/{n}     submit a whole-figure batch job
//	GET    /healthz            liveness + queue/cache gauges
//	GET    /metrics            service gauges/counters, Prometheus text
//
// Results are byte-identical to `dx100sim -run ... -json`: both paths
// render through exp.ResultJSON, and the simulator is deterministic.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
	"dx100/internal/obs/span"
	"dx100/internal/sim"
	"dx100/internal/workloads"
	"dx100/internal/workloads/pattern"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of job-executing goroutines (default 2).
	// Each single-run job occupies one worker; figure jobs fan their
	// runs out further over FigWorkers.
	Workers int
	// QueueDepth bounds the FIFO of accepted-but-unstarted jobs
	// (default 64). A full queue rejects submissions with 503.
	QueueDepth int
	// JobTimeout is the per-job wall-clock budget; zero means none.
	JobTimeout time.Duration
	// CacheDir backs the result cache on disk; empty means in-memory
	// only.
	CacheDir string
	// FigWorkers bounds the per-figure experiment pool (0 = one per
	// CPU).
	FigWorkers int
	// ProfileWindow, when positive, profiles every single-run job at
	// this sampling interval: live timeline rows go out over the run's
	// SSE stream, and the finished timeline plus stall breakdown is
	// served at GET /v1/runs/{id}/timeline. Served Results stay
	// byte-identical to unprofiled runs — the profile travels beside
	// the Result, never inside it.
	ProfileWindow sim.Cycle
	// Logger receives structured operational logs (one line per HTTP
	// request and per job transition, correlated by trace_id/span_id);
	// nil discards them. dx100d wires a JSON handler on stderr.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: the profiling surface exposes heap contents and should
	// only face operators.
	Pprof bool
}

// ErrQueueFull is returned when the job queue is at capacity; the HTTP
// layer maps it to 503 + Retry-After so clients back off instead of
// piling unbounded work onto the daemon.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrQueueClosed is returned for submissions after Shutdown began.
var ErrQueueClosed = errors.New("serve: job queue closed")

// Server is the experiment service. Create with New, serve via
// Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *Cache
	// q holds accepted, unstarted jobs in FIFO order; its capacity is
	// Config.QueueDepth, and a full buffer answers 503. It is sent to
	// and closed only under mu after the closed check, so no send can
	// race the close; workers drain it after Shutdown closes it.
	q       chan *job
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the tracing/logging middleware
	log     *slog.Logger

	ctx    context.Context // canceled only when Shutdown gives up waiting
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	start time.Time
	// simRuns counts simulations actually executed — cache hits and
	// coalesced submissions do not bump it. The cache tests assert on
	// it, and /healthz and /metrics expose it.
	simRuns atomic.Int64

	// metrics holds the service-level counters behind GET /metrics.
	metrics *serverMetrics
}

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		q:       make(chan *job, cfg.QueueDepth),
		log:     cfg.Logger,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		start:   time.Now(),
		metrics: newServerMetrics(),
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/metrics", s.handleRunMetrics)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	if cfg.Pprof {
		registerPprof(s.mux)
	}
	s.handler = s.traceMiddleware(s.mux)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP surface: the route mux wrapped in the
// tracing + structured-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// SimRuns reports how many simulations the server has actually
// executed (cache hits excluded).
func (s *Server) SimRuns() int64 { return s.simRuns.Load() }

// Shutdown drains the service: no new submissions are accepted, queued
// and running jobs are completed, then the workers exit. If ctx
// expires first, in-flight jobs are cooperatively canceled through
// their engine check hooks and Shutdown waits for the workers to
// observe that.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.q)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // abort in-flight engines; workers exit promptly
		<-done
		return fmt.Errorf("serve: shutdown forced after %v", ctx.Err())
	}
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.q {
		s.execute(j)
	}
}

// execute runs one job to a terminal state.
func (s *Server) execute(j *job) {
	ctx := s.ctx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.start(cancel) {
		return // canceled while queued
	}
	s.log.Info("job started", "job", j.id[:12], "kind", j.kind,
		"trace_id", j.trace.Trace.String())
	s.metrics.inFlight.Add(1)
	began := time.Now()
	defer func() {
		s.metrics.inFlight.Add(-1)
		s.metrics.observeJob(time.Since(began))
	}()
	var out json.RawMessage
	var err error
	switch j.kind {
	case "run":
		out, err = s.executeRun(ctx, j)
	case "figure":
		out, err = s.executeFigure(ctx, j)
	default:
		err = fmt.Errorf("serve: unknown job kind %q", j.kind)
	}
	if err != nil {
		s.log.Warn("job failed", "job", j.id[:12], "kind", j.kind,
			"trace_id", j.trace.Trace.String(), "err", err,
			"elapsed", time.Since(began))
		s.metrics.jobsFailed.Add(1)
		j.finish(nil, err)
		return
	}
	s.metrics.jobsDone.Add(1)
	put := j.spans.Start("cache.put", j.trace)
	cerr := s.cache.Put(j.id, out)
	put.End()
	if cerr != nil {
		// The run succeeded; a cache-write failure only costs a rerun
		// later. Log and carry on.
		s.log.Warn("cache put failed", "job", j.id[:12], "err", cerr)
	}
	s.log.Info("job done", "job", j.id[:12], "kind", j.kind,
		"trace_id", j.trace.Trace.String(), "elapsed", time.Since(began))
	j.finish(out, nil)
}

func (s *Server) executeRun(ctx context.Context, j *job) (json.RawMessage, error) {
	s.simRuns.Add(1)
	runSpan := j.spans.Start("run", j.trace)
	opts := exp.RunOptions{
		Context: ctx,
		OnPhase: span.PhaseSpans(j.spans, runSpan.Context()),
		Progress: func(p exp.ProgressSample) {
			if b, err := json.Marshal(p); err == nil {
				j.publishProgress(b)
			}
		},
	}
	if s.cfg.ProfileWindow > 0 {
		opts.ProfileWindow = s.cfg.ProfileWindow
		opts.OnSample = func(cycle uint64, names []string, values []float64) {
			row := timelineRow{Cycle: cycle, Values: make(map[string]float64, len(names))}
			for i, name := range names {
				row.Values[name] = values[i]
			}
			if b, err := json.Marshal(row); err == nil {
				j.publishTimeline(b)
			}
		}
	}
	res, err := j.spec.Run(opts)
	runSpan.End()
	if err != nil {
		return nil, err
	}
	enc := j.spans.Start("encode", j.trace)
	defer enc.End()
	if res.Timeline != nil {
		// Keep the profile beside the Result, not inside it: the cached
		// and served Result bytes must match an unprofiled `dx100sim
		// -run ... -json` exactly (the CI smoke asserts this).
		doc, err := json.Marshal(timelineDoc{Timeline: res.Timeline, Stalls: res.Stalls})
		if err != nil {
			return nil, err
		}
		j.setTimeline(doc)
		res.Timeline, res.Stalls = nil, nil
	}
	return exp.ResultJSON(res)
}

// timelineRow is one live SSE `timeline` event: a sampled window's
// probe values keyed by probe name.
type timelineRow struct {
	Cycle  uint64             `json:"cycle"`
	Values map[string]float64 `json:"values"`
}

// timelineDoc is the GET /v1/runs/{id}/timeline payload.
type timelineDoc struct {
	Timeline *prof.Timeline  `json:"timeline"`
	Stalls   *prof.Breakdown `json:"stall_breakdown"`
}

// submit implements the singleflight core shared by runs and figures:
// cache hit → synthetic done job; existing live job → coalesce; else
// enqueue a fresh job. The bool reports a cache hit.
func (s *Server) submit(j *job) (*job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrQueueClosed
	}
	s.metrics.submissions.Add(1)
	if existing, ok := s.jobs[j.id]; ok {
		existing.mu.Lock()
		st := existing.state
		done := existing.state == StateDone
		existing.mu.Unlock()
		// Coalesce onto any live or successfully finished job; only
		// failed/canceled jobs are retried with a fresh submission.
		if done || !st.terminal() {
			s.metrics.coalesced.Add(1)
			return existing, done, nil
		}
	}
	lookup := j.spans.Start("cache.lookup", j.trace)
	cached, hit := s.cache.Get(j.id)
	lookup.End()
	if hit {
		// Materialize a terminal job so status/events work uniformly.
		s.metrics.cacheHits.Add(1)
		j.finish(cached, nil)
		s.jobs[j.id] = j
		return j, true, nil
	}
	// The queue-wait span opens here and closes in job.start (or when
	// the job is canceled while still queued).
	j.queueSpan = j.spans.Start("queue.wait", j.trace)
	select {
	case s.q <- j:
	default:
		j.queueSpan.End()
		j.queueSpan = nil
		return nil, false, ErrQueueFull
	}
	s.jobs[j.id] = j
	return j, false, nil
}

// --- request/response shapes -------------------------------------------

// Overrides is the client-settable subset of SystemConfig knobs. A nil
// field keeps the Table 3 default; the fully-resolved config is what
// gets hashed, so two phrasings of the same system coalesce.
type Overrides struct {
	Cores     *int    `json:"cores,omitempty"`
	LLCBytes  *int    `json:"llc_bytes,omitempty"`
	Instances *int    `json:"instances,omitempty"`
	MaxCycles *uint64 `json:"max_cycles,omitempty"`
	TileElems *int    `json:"tile_elems,omitempty"`
	WarmLLC   *bool   `json:"warm_llc,omitempty"`
}

type runRequest struct {
	Workload  string     `json:"workload"`
	Mode      string     `json:"mode"`
	Scale     int        `json:"scale"`
	Overrides *Overrides `json:"overrides,omitempty"`
	// Sampling, when non-nil, runs the job under SMARTS interval
	// sampling (see exp.SamplingConfig). It changes what is computed —
	// a sampled result is an estimate with confidence intervals — so it
	// joins the Spec and therefore the content hash: sampled and
	// full-detail submissions never coalesce.
	Sampling *exp.SamplingConfig `json:"sampling,omitempty"`
	// Pattern, when present, submits a Spatter-style gather/scatter
	// pattern file instead of a registry workload (Workload must then be
	// empty). The normalized file joins the Spec, so two submissions of
	// the same pattern — however the JSON was formatted — coalesce, and
	// the served Result is byte-identical to `dx100sim -pattern ... -json`.
	// It stays raw JSON through the request decoder, which refuses
	// unknown fields, and goes through pattern.Parse, which keeps the
	// extra keys Spatter inputs carry.
	Pattern json.RawMessage `json:"pattern,omitempty"`
}

// maxScale caps the dataset scale of a run or figure request, so one
// request cannot demand an arbitrarily large workload build. It is 4x
// the largest scale EXPERIMENTS.md evaluates at (16).
const maxScale = 64

// The llc_bytes and tile_elems overrides stay inside ranges the model
// builds: an LLC smaller than one set per way divides by zero, and a
// non-positive tile cannot be allocated. Tiles span Fig 13's sweep.
const (
	minLLCBytes  = 1 << 20
	maxLLCBytes  = 64 << 20
	minTileElems = 1024
	maxTileElems = 32768
)

// resolve turns the request into a fully-resolved Spec. The
// max_cycles override may only lower the default cycle limit.
func (rr runRequest) resolve() (exp.Spec, error) {
	var pf *pattern.File
	hasPattern := len(rr.Pattern) > 0 && string(rr.Pattern) != "null"
	switch {
	case hasPattern && rr.Workload != "":
		return exp.Spec{}, fmt.Errorf("request names both workload %q and a pattern file", rr.Workload)
	case hasPattern:
		// Hostile entries must fail here, not in the worker.
		f, err := pattern.Parse(rr.Pattern)
		if err != nil {
			return exp.Spec{}, err
		}
		pf = f
	default:
		if _, ok := workloads.Registry[rr.Workload]; !ok {
			return exp.Spec{}, fmt.Errorf("unknown workload %q (see dx100sim -list; micro.* names are also served)", rr.Workload)
		}
	}
	if rr.Mode == "" {
		rr.Mode = "dx100"
	}
	mode, err := exp.ParseMode(rr.Mode)
	if err != nil {
		return exp.Spec{}, err
	}
	if rr.Scale <= 0 {
		rr.Scale = 1
	}
	if rr.Scale > maxScale {
		return exp.Spec{}, fmt.Errorf("scale %d above the limit of %d", rr.Scale, maxScale)
	}
	cfg := exp.Default(mode)
	if o := rr.Overrides; o != nil {
		if o.Cores != nil {
			cfg.Cores = *o.Cores
		}
		if o.LLCBytes != nil {
			if *o.LLCBytes < minLLCBytes || *o.LLCBytes > maxLLCBytes {
				return exp.Spec{}, fmt.Errorf("llc_bytes %d outside [%d, %d]", *o.LLCBytes, minLLCBytes, maxLLCBytes)
			}
			cfg.LLCBytes = *o.LLCBytes
		}
		if o.Instances != nil {
			cfg.Instances = *o.Instances
		}
		if o.MaxCycles != nil {
			// Zero would lift the engine's cycle limit altogether.
			if *o.MaxCycles == 0 || *o.MaxCycles > uint64(cfg.MaxCycles) {
				return exp.Spec{}, fmt.Errorf("max_cycles %d outside [1, %d]", *o.MaxCycles, cfg.MaxCycles)
			}
			cfg.MaxCycles = sim.Cycle(*o.MaxCycles)
		}
		if o.TileElems != nil {
			if *o.TileElems < minTileElems || *o.TileElems > maxTileElems {
				return exp.Spec{}, fmt.Errorf("tile_elems %d outside [%d, %d]", *o.TileElems, minTileElems, maxTileElems)
			}
			cfg.Accel.Machine.TileElems = *o.TileElems
		}
		if o.WarmLLC != nil {
			cfg.WarmLLC = *o.WarmLLC
		}
	}
	if cfg.Cores < 1 || cfg.Cores > 64 || cfg.Instances < 1 || cfg.Instances > cfg.Cores {
		return exp.Spec{}, fmt.Errorf("invalid core/instance override (cores %d, instances %d)", cfg.Cores, cfg.Instances)
	}
	return exp.Spec{Workload: rr.Workload, Scale: rr.Scale, Config: cfg, Pattern: pf, Sampling: rr.Sampling}, nil
}

type submitResponse struct {
	ID      string `json:"id"`
	Status  State  `json:"status"`
	Cached  bool   `json:"cached"`
	TraceID string `json:"trace_id,omitempty"`
}

// maxRunBody bounds a POST /v1/runs body, so one request cannot make
// the daemon buffer an arbitrarily large JSON value before
// pattern.Validate's caps apply. It admits the largest file Validate
// accepts — MaxEntries "gs" entries, each carrying a gather and a
// scatter pattern of MaxPatternLen indices — pretty-printed, at
// maxIndexBytes per index: a seven-digit index (indices stay below
// MaxEntrySpan), its comma, a newline and up to 23 bytes of
// indentation. The limit comes to 16 MiB; larger bodies get 413.
const (
	maxIndexBytes = 32
	maxRunBody    = 2 * pattern.MaxEntries * pattern.MaxPatternLen * maxIndexBytes
)

// --- handlers ----------------------------------------------------------

// decodeRun reads a POST /v1/runs body into the Spec it asks for. A
// refused body comes back with its status: 413 over maxRunBody, 400
// for anything else.
func decodeRun(w http.ResponseWriter, body io.ReadCloser) (exp.Spec, int, error) {
	var rr runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxRunBody))
	// A misspelled override must not run the default system under the
	// default spec's id.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return exp.Spec{}, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit)
		}
		return exp.Spec{}, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	spec, err := rr.resolve()
	if err != nil {
		return exp.Spec{}, http.StatusBadRequest, err
	}
	return spec, 0, nil
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	spec, status, err := decodeRun(w, r.Body)
	if err != nil {
		httpError(w, status, err)
		return
	}
	id, err := spec.Hash()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	j := newJob(id, "run")
	j.spec = spec
	s.initTrace(j, r)
	s.finishSubmit(w, j)
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	fig, err := parseFigSpec(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, err := fig.hash()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	j := newJob(id, "figure")
	j.fig = fig
	s.initTrace(j, r)
	s.finishSubmit(w, j)
}

// finishSubmit pushes the job through the singleflight path and writes
// the submit response.
func (s *Server) finishSubmit(w http.ResponseWriter, j *job) {
	got, cached, err := s.submit(j)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQueueClosed):
		httpError(w, http.StatusServiceUnavailable, errors.New("serve: shutting down"))
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	got.mu.Lock()
	st := got.state
	got.mu.Unlock()
	resp := submitResponse{ID: got.id, Status: st, Cached: cached}
	if got.trace.Valid() {
		resp.TraceID = got.trace.Trace.String()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		// Not an active job — maybe a previous process computed it.
		if cached, ok := s.cache.Get(id); ok {
			writeJSON(w, http.StatusOK, statusView{ID: id, Status: StateDone, Result: cached, Cached: true})
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	j.canceledWhileQueued()
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.view())
}

// handleEvents streams a job's progress as server-sent events:
// `progress` events carrying samples (plus `timeline` events carrying
// sampled telemetry rows when the server profiles its runs), then one
// terminal `done` / `failed` / `canceled` event, after which the
// stream closes. Every event carries the job's sequence number as its
// SSE id; a reconnecting client sends it back as Last-Event-ID and
// resumes from exactly the next event (EventSource does this
// automatically).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	s.streamEvents(w, r, j, false, func(ev event) bool { return true })
}

// streamEvents is the shared SSE loop behind the events and live
// timeline endpoints: replay the ledger past the client's Last-Event-ID
// (or, absent one, the latest progress sample so late subscribers see
// something immediately — the full ledger instead when replayAll is
// set), then follow the live feed through the keep filter until the
// job's terminal event.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *job, replayAll bool, keep func(event) bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	// A server ReadTimeout bounds reading the request, not the stream.
	// A read deadline left on the connection would fail the background
	// read net/http keeps open while the handler runs and cancel
	// r.Context(), ending the stream mid-run. net/http clears it when it
	// starts that read on a bodiless request; the stream clears it too
	// rather than lean on that detail. A writer with no connection (a
	// test recorder) has no deadline to clear, so the error is dropped.
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch := j.subscribe()
	defer j.unsubscribe(ch)

	// lastSeq tracks what this client has seen so the replay and the
	// live feed never double-deliver (the subscription opened before the
	// ledger snapshot, so an event can arrive through both).
	var lastSeq uint64
	resumed := replayAll
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		if n, err := strconv.ParseUint(lid, 10, 64); err == nil {
			lastSeq, resumed = n, true
		}
	}
	emit := func(ev event) bool {
		if ev.seq <= lastSeq || !keep(ev) {
			return false
		}
		lastSeq = ev.seq
		writeEvent(w, ev)
		flusher.Flush()
		return State(ev.name).terminal()
	}

	if resumed {
		for _, ev := range j.replaySince(lastSeq) {
			if emit(ev) {
				return
			}
		}
	} else {
		j.mu.Lock()
		last := j.progress
		j.mu.Unlock()
		if last != nil && keep(event{name: "progress", data: last}) {
			writeEvent(w, event{name: "progress", data: last})
			flusher.Flush()
		}
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if st.terminal() {
		// The ledger replay may already have delivered the terminal
		// event; if not (fresh subscriber, or it aged out), synthesize
		// it so the client always observes closure.
		payload, _ := json.Marshal(map[string]string{"id": j.id, "status": string(st)})
		writeEvent(w, event{name: string(st), data: payload})
		flusher.Flush()
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if emit(ev) {
				return
			}
		case <-j.done:
			// Drain anything published before the close, then emit the
			// terminal event (it may already be in the channel; the
			// drain handles both orders).
			for {
				select {
				case ev := <-ch:
					if emit(ev) {
						return
					}
				default:
					j.mu.Lock()
					st := j.state
					j.mu.Unlock()
					payload, _ := json.Marshal(map[string]string{"id": j.id, "status": string(st)})
					writeEvent(w, event{name: string(st), data: payload})
					flusher.Flush()
					return
				}
			}
		}
	}
}

// handleTimeline serves a profiled run's timeline. With
// `Accept: text/event-stream` it streams the live sampled rows as SSE
// `timeline` events (resumable via Last-Event-ID, ending with the
// job's terminal event) — the dashboard's sparkline feed. Otherwise it
// serves the finished timeline + stall breakdown as one JSON document:
// 404 until the run finishes, when the server does not profile, and
// for cache-restored jobs (the cache stores Results only — profiles
// are per-execution artifacts).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		// Full-ledger replay by default: a dashboard attaching mid-run
		// (or after it) still draws the whole sparkline history.
		s.streamEvents(w, r, j, true, func(ev event) bool {
			return ev.name == "timeline" || State(ev.name).terminal()
		})
		return
	}
	j.mu.Lock()
	doc := j.timeline
	j.mu.Unlock()
	if doc == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no timeline for run %q (not profiled, not finished, or restored from cache)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var queued, running, terminal int
	for _, j := range s.jobs {
		j.mu.Lock()
		switch {
		case j.state == StateQueued:
			queued++
		case j.state == StateRunning:
			running++
		default:
			terminal++
		}
		j.mu.Unlock()
	}
	closed := s.closed
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             !closed,
		"draining":       closed,
		"queued":         queued,
		"queue_len":      len(s.q),
		"running":        running,
		"finished":       terminal,
		"workers":        s.cfg.Workers,
		"queue_depth":    s.cfg.QueueDepth,
		"cache_entries":  s.cache.Len(),
		"sim_runs":       s.simRuns.Load(),
		"uptime_seconds": int(time.Since(s.start).Seconds()),
	})
}

// --- small helpers -----------------------------------------------------

// writeJSON emits compact JSON. No indentation: an indenting encoder
// reformats embedded json.RawMessage values, which would break the
// byte-for-byte identity between a served Result and the CLI's -json
// output.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeEvent emits one SSE frame. Payloads are single-line JSON, so no
// data-line splitting is needed. Ledger events carry their sequence
// number as the SSE id (the Last-Event-ID resume cursor); synthesized
// frames (seq 0) omit it so they never move the client's cursor.
func writeEvent(w http.ResponseWriter, ev event) {
	if ev.seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}

func parsePositiveInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid positive integer %q", s)
	}
	return n, nil
}
