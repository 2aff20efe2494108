package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs"
)

// serverMetrics is the daemon's own observability: counters the
// request paths bump and the job-duration histogram. Request handlers
// write them while /metrics scrapes, so the counters are atomics and
// the histogram sits behind mu. Live values (queue depth, cache size,
// runtime health) are read at scrape time by Server.metricsSnapshot.
type serverMetrics struct {
	submissions atomic.Int64 // accepted POST /v1/runs and figure submissions
	cacheHits   atomic.Int64 // submissions answered from the result cache
	coalesced   atomic.Int64 // submissions folded onto a live job
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	inFlight    atomic.Int64

	mu         sync.Mutex
	jobSeconds *obs.Histogram // guarded by mu

	mem func() runtime.MemStats // cachedMemStats
}

// jobDurationBounds buckets job wall-clock in seconds: smoke runs land
// in the sub-second buckets, evaluation-scale runs in the tail.
var jobDurationBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{jobSeconds: obs.NewHistogram(jobDurationBounds), mem: cachedMemStats()}
}

// observeJob records one job's wall-clock duration.
func (m *serverMetrics) observeJob(d time.Duration) {
	m.mu.Lock()
	m.jobSeconds.Observe(d.Seconds())
	m.mu.Unlock()
}

// metricsSnapshot freezes the service metrics: the request-path
// counters, the job-duration histogram, and the live state each scrape
// reads afresh. Go-runtime health comes from a ReadMemStats that stops
// the world briefly, so cachedMemStats shares one reading per second
// between scrapes.
func (s *Server) metricsSnapshot() obs.Snapshot {
	m := s.metrics
	mem := m.mem()
	m.mu.Lock()
	jobs := m.jobSeconds.Snapshot()
	m.mu.Unlock()
	s.mu.Lock()
	draining := 0.0
	if s.closed {
		draining = 1
	}
	s.mu.Unlock()
	return obs.Snapshot{
		Counters: map[string]float64{
			"submissions":               float64(m.submissions.Load()),
			"cache.hits":                float64(m.cacheHits.Load()),
			"coalesced":                 float64(m.coalesced.Load()),
			"jobs.done":                 float64(m.jobsDone.Load()),
			"jobs.failed":               float64(m.jobsFailed.Load()),
			"sim.runs":                  float64(s.simRuns.Load()),
			"go.gc_pause_seconds_total": float64(mem.PauseTotalNs) / 1e9,
		},
		Gauges: map[string]float64{
			"jobs.inflight":       float64(m.inFlight.Load()),
			"queue.depth":         float64(len(s.q)),
			"cache.entries":       float64(s.cache.Len()),
			"draining":            draining,
			"uptime_seconds":      time.Since(s.start).Seconds(),
			"go.goroutines":       float64(runtime.NumGoroutine()),
			"go.heap_alloc_bytes": float64(mem.HeapAlloc),
			"go.heap_objects":     float64(mem.HeapObjects),
		},
		Histograms: map[string]obs.HistogramSnapshot{"job.duration_seconds": jobs},
	}
}

// cachedMemStats returns a ReadMemStats accessor memoized for one
// second. It returns a copy, so a scrape never reads the struct while
// another scrape refreshes it.
func cachedMemStats() func() runtime.MemStats {
	var mu sync.Mutex
	var ms runtime.MemStats
	var at time.Time
	return func() runtime.MemStats {
		mu.Lock()
		defer mu.Unlock()
		if now := time.Now(); now.Sub(at) > time.Second {
			runtime.ReadMemStats(&ms)
			at = now
		}
		return ms
	}
}

// handleMetrics serves the daemon's service-level metrics in Prometheus
// text exposition format: queue depth, in-flight jobs, cache size and
// hit count, simulations executed, job duration distribution plus its
// estimated p50/p95/p99.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.metricsSnapshot()
	if err := snap.WritePrometheus(w, "dx100d_"); err != nil {
		s.log.Warn("metrics write failed", "err", err)
	}
	// Summary-style quantile estimates beside the raw buckets, so a
	// plain scrape shows job latency without a histogram_quantile query.
	if h, ok := snap.Histograms["job.duration_seconds"]; ok && h.Count > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "dx100d_job_duration_seconds_quantile{quantile=%q} %g\n",
				fmt.Sprintf("%g", q), h.Quantile(q))
		}
	}
}

// handleMetricsJSON serves the same service-level snapshot as
// /metrics, but as JSON with the job-duration quantiles precomputed —
// the dashboard's polling endpoint (no Prometheus text parsing in the
// browser).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	quantiles := map[string]float64{}
	if h, ok := snap.Histograms["job.duration_seconds"]; ok && h.Count > 0 {
		quantiles["p50"] = h.Quantile(0.5)
		quantiles["p95"] = h.Quantile(0.95)
		quantiles["p99"] = h.Quantile(0.99)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"counters":               snap.Counters,
		"gauges":                 snap.Gauges,
		"job_duration_quantiles": quantiles,
	})
}

// handleRunMetrics serves one finished run's simulator statistics as
// Prometheus text with a run="<id>" label. The snapshot is rebuilt
// from the stored Result JSON, so it works for cached results from
// earlier processes too. The flat wire form carries counters only, so
// the run's histograms are absent here; the CLI -metrics flag captures
// them at run time.
func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var raw []byte
	if j := s.lookup(id); j != nil {
		v := j.view()
		if v.Result == nil {
			httpError(w, http.StatusConflict, fmt.Errorf("run %q has no result yet (status %s)", id, v.Status))
			return
		}
		raw = v.Result
	} else if cached, ok := s.cache.Get(id); ok {
		raw = cached
	} else {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	res, err := exp.DecodeResult(raw)
	if err != nil || res.Stats == nil {
		// Figure jobs store a different payload; only single runs carry
		// statistics.
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("run %q carries no per-run statistics", id))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := res.Stats.Snapshot()
	if err := snap.WritePrometheus(w, "dx100_run_", obs.Label{Key: "run", Value: id}); err != nil {
		s.log.Warn("run metrics write failed", "err", err)
	}
}
