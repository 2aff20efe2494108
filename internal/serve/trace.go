package serve

import (
	"context"
	"fmt"
	"net/http"
	nhpprof "net/http/pprof"
	"sort"
	"time"

	"dx100/internal/obs/span"
)

// traceCtxKey carries the request span's context through r.Context()
// so submit handlers can parent the job's root span on the HTTP
// request that created it.
type traceCtxKey struct{}

// requestSpanContext returns the middleware-installed span context, or
// the zero context outside a traced request (direct handler tests).
func requestSpanContext(ctx context.Context) span.Context {
	c, _ := ctx.Value(traceCtxKey{}).(span.Context)
	return c
}

// statusRecorder captures the response status for the request's log
// line while forwarding Flush, which the SSE handlers require.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection beneath.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// traceMiddleware wraps every route: it parses an incoming W3C
// traceparent header (continuing the caller's trace when one is sent,
// starting a fresh one otherwise), gives the request a span context,
// echoes it back in the response traceparent header, and writes one
// structured log line per request correlated by trace_id/span_id. The
// request span is not recorded: a job's root span parents on it, and
// each job's own recorder serves that run's trace.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent span.Context
		if tp := r.Header.Get("traceparent"); tp != "" {
			if c, err := span.ParseTraceparent(tp); err == nil {
				parent = c
			}
		}
		c := span.Child(parent)
		w.Header().Set("traceparent", c.Traceparent())
		sr := &statusRecorder{ResponseWriter: w}
		began := time.Now()
		next.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, c)))
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		s.log.Info("http",
			"method", r.Method, "path", r.URL.Path, "status", sr.status,
			"dur_ms", float64(time.Since(began).Microseconds())/1000,
			"trace_id", c.Trace.String(), "span_id", c.Span.String())
	})
}

// initTrace gives a freshly submitted job its own span recorder and
// opens the async whole-job root span, parented on the submitting HTTP
// request's span so the job's trace continues the client's. When the
// submission coalesces onto an existing job, this job — spans and all —
// is simply discarded.
func (s *Server) initTrace(j *job, r *http.Request) {
	j.spans = span.NewRecorder(0)
	j.rootSpan = j.spans.StartAsync("job."+j.kind, requestSpanContext(r.Context()))
	j.trace = j.rootSpan.Context()
}

// handleTrace serves a run's lifecycle spans as a Chrome trace_event
// JSON document, loadable directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Available from submission on — an in-flight job
// serves the spans recorded so far (async job spans are visible while
// still open).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	if j.spans == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no trace for run %q (submitted outside a traced request)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	j.spans.WriteChrome(w)
}

// handleListRuns lists the server's known jobs, newest first, as
// status views without the spec, figure, progress or result — poll
// GET /v1/runs/{id} for those.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	rows := make([]statusView, len(jobs))
	for i, j := range jobs {
		rows[i] = j.view()
		rows[i].Spec, rows[i].Figure, rows[i].Progress, rows[i].Result = nil, nil, nil, nil
	}
	sort.Slice(rows, func(i, k int) bool {
		if rows[i].Created.Equal(rows[k].Created) {
			return rows[i].ID < rows[k].ID
		}
		return rows[i].Created.After(rows[k].Created)
	})
	writeJSON(w, http.StatusOK, map[string]any{"runs": rows})
}

// registerPprof mounts the standard net/http/pprof surface on the
// daemon's own mux (the package's init only touches
// http.DefaultServeMux, which dx100d does not serve).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", nhpprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", nhpprof.Trace)
}
