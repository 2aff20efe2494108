package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs"
)

// serverMetrics is the daemon's own observability: counters bumped on
// the request paths plus func-backed gauges that read live state at
// scrape time. Everything here uses the concurrent obs types — request
// handlers write while /metrics scrapes.
type serverMetrics struct {
	reg *obs.Registry

	submissions *obs.SyncCounter // accepted POST /v1/runs and figure submissions
	cacheHits   *obs.SyncCounter // submissions answered from the result cache
	coalesced   *obs.SyncCounter // submissions folded onto a live job
	jobsDone    *obs.SyncCounter
	jobsFailed  *obs.SyncCounter
	inFlight    *obs.Gauge
	jobSeconds  *obs.SyncHistogram
}

// jobDurationBounds buckets job wall-clock in seconds: smoke runs land
// in the sub-second buckets, evaluation-scale runs in the tail.
var jobDurationBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// initMetrics builds the registry and wires the live gauges. Called
// once from New, before any handler can run.
func (s *Server) initMetrics() {
	m := &serverMetrics{reg: obs.NewRegistry()}
	m.submissions = m.reg.SyncCounter("submissions")
	m.cacheHits = m.reg.SyncCounter("cache.hits")
	m.coalesced = m.reg.SyncCounter("coalesced")
	m.jobsDone = m.reg.SyncCounter("jobs.done")
	m.jobsFailed = m.reg.SyncCounter("jobs.failed")
	m.inFlight = m.reg.Gauge("jobs.inflight")
	m.jobSeconds = m.reg.SyncHistogram("job.duration_seconds", jobDurationBounds)
	m.reg.CounterFunc("sim.runs", func() float64 { return float64(s.simRuns.Load()) })
	m.reg.GaugeFunc("queue.depth", func() float64 { return float64(len(s.q)) })
	m.reg.GaugeFunc("cache.entries", func() float64 { return float64(s.cache.Len()) })
	m.reg.GaugeFunc("draining", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return 1
		}
		return 0
	})
	m.reg.GaugeFunc("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })

	// Go-runtime health, func-backed so each scrape sees live values.
	// ReadMemStats stops the world briefly, so its result is cached for
	// a second and shared by the three memory gauges — a dashboard
	// polling at 2s never pays it twice.
	mem := cachedMemStats()
	m.reg.GaugeFunc("go.goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	m.reg.GaugeFunc("go.heap_alloc_bytes", func() float64 { return float64(mem().HeapAlloc) })
	m.reg.GaugeFunc("go.heap_objects", func() float64 { return float64(mem().HeapObjects) })
	m.reg.CounterFunc("go.gc_pause_seconds_total", func() float64 {
		return float64(mem().PauseTotalNs) / 1e9
	})
	s.metrics = m
}

// cachedMemStats returns a ReadMemStats accessor memoized for one
// second.
func cachedMemStats() func() *runtime.MemStats {
	var mu sync.Mutex
	var ms runtime.MemStats
	var at time.Time
	return func() *runtime.MemStats {
		mu.Lock()
		defer mu.Unlock()
		if now := time.Now(); now.Sub(at) > time.Second {
			runtime.ReadMemStats(&ms)
			at = now
		}
		return &ms
	}
}

// handleMetrics serves the daemon's service-level metrics in Prometheus
// text exposition format: queue depth, in-flight jobs, cache size and
// hit count, simulations executed, job duration distribution plus its
// estimated p50/p95/p99.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.metrics.reg.Snapshot()
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
	snap := s.metrics.reg.Snapshot()
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

// handleRunMetrics serves one finished run's simulator statistics —
// every counter and histogram of the run registry — as Prometheus text
// with a run="<id>" label. The snapshot is rebuilt from the stored
// Result JSON, so it works for cached results from earlier processes
// too. Histograms present only in the live registry (the flat wire
// form carries counters) are therefore absent here; the CLI -metrics
// flag captures them at run time.
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
		// a stats registry.
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("run %q carries no per-run statistics", id))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := res.Stats.Registry().Snapshot()
	if err := snap.WritePrometheus(w, "dx100_run_", obs.Label{Key: "run", Value: id}); err != nil {
		s.log.Warn("run metrics write failed", "err", err)
	}
}
