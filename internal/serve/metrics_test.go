package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, ts *httptest.Server, path string) (string, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// metricValue extracts the sample value of the named series (ignoring
// any label set) from Prometheus text output; ok is false when absent.
func metricValue(out, name string) (string, bool) {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 {
			continue
		}
		if rest[0] == '{' {
			if i := strings.Index(rest, "} "); i >= 0 {
				return rest[i+2:], true
			}
			continue
		}
		if rest[0] == ' ' {
			return rest[1:], true
		}
	}
	return "", false
}

// serviceSeries is every series GET /metrics exposes, with its type:
// seven counters, eight gauges and one histogram.
var serviceSeries = map[string]string{
	"dx100d_submissions":               "counter",
	"dx100d_cache_hits":                "counter",
	"dx100d_coalesced":                 "counter",
	"dx100d_jobs_done":                 "counter",
	"dx100d_jobs_failed":               "counter",
	"dx100d_sim_runs":                  "counter",
	"dx100d_go_gc_pause_seconds_total": "counter",
	"dx100d_jobs_inflight":             "gauge",
	"dx100d_queue_depth":               "gauge",
	"dx100d_cache_entries":             "gauge",
	"dx100d_draining":                  "gauge",
	"dx100d_uptime_seconds":            "gauge",
	"dx100d_go_goroutines":             "gauge",
	"dx100d_go_heap_alloc_bytes":       "gauge",
	"dx100d_go_heap_objects":           "gauge",
	"dx100d_job_duration_seconds":      "histogram",
}

// requireServiceSeries fails t unless out, a /metrics scrape, types
// exactly the series of serviceSeries and gives each a value.
func requireServiceSeries(t *testing.T, out string) {
	t.Helper()
	var typed []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed = append(typed, line)
		}
	}
	if len(typed) != len(serviceSeries) {
		t.Errorf("/metrics types %d series, want %d:\n%s", len(typed), len(serviceSeries), strings.Join(typed, "\n"))
	}
	for name, typ := range serviceSeries {
		if !strings.Contains(out, "# TYPE "+name+" "+typ+"\n") {
			t.Errorf("/metrics lacks # TYPE %s %s:\n%s", name, typ, out)
		}
		series := name
		if typ == "histogram" {
			series += "_count"
		}
		if _, ok := metricValue(out, series); !ok {
			t.Errorf("/metrics missing %s:\n%s", series, out)
		}
	}
}

func TestMetricsEndpointExposesServiceGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	out, code := scrape(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	requireServiceSeries(t, out)
	if v, _ := metricValue(out, "dx100d_sim_runs"); v != "0" {
		t.Fatalf("fresh server reports sim_runs %q", v)
	}

	// One run, then a repeat submission: the counters must record one
	// simulation, two submissions, and one cache/coalesce hit.
	sr, code := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollDone(t, ts, sr.ID)
	postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)

	out, _ = scrape(t, ts, "/metrics")
	requireServiceSeries(t, out)
	if v, _ := metricValue(out, "dx100d_sim_runs"); v != "1" {
		t.Errorf("sim_runs = %q, want 1", v)
	}
	if v, _ := metricValue(out, "dx100d_submissions"); v != "2" {
		t.Errorf("submissions = %q, want 2", v)
	}
	if v, _ := metricValue(out, "dx100d_jobs_done"); v != "1" {
		t.Errorf("jobs_done = %q, want 1", v)
	}
	if v, _ := metricValue(out, "dx100d_job_duration_seconds_count"); v != "1" {
		t.Errorf("job duration count = %q, want 1", v)
	}
	// The repeat lands as either a coalesce (job map) or a cache hit;
	// one of the two counters must be 1.
	co, _ := metricValue(out, "dx100d_coalesced")
	ch, _ := metricValue(out, "dx100d_cache_hits")
	if co != "1" && ch != "1" {
		t.Errorf("repeat submission uncounted: coalesced=%q cache_hits=%q", co, ch)
	}
	// With one observation recorded, the summary-style quantile
	// estimates appear beside the raw buckets.
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		series := fmt.Sprintf("dx100d_job_duration_seconds_quantile{quantile=%q}", q)
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing %s:\n%s", series, out)
		}
	}
}

func TestRunMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr, code := postRun(t, ts, `{"workload":"micro.gather","mode":"dx100","scale":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	v := pollDone(t, ts, sr.ID)
	if v.Status != StateDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}

	out, code := scrape(t, ts, "/v1/runs/"+sr.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET run metrics = %d:\n%s", code, out)
	}
	label := fmt.Sprintf(`{run="%s"}`, sr.ID)
	for _, series := range []string{
		"dx100_run_dram_reads", "dx100_run_dram_rowhits", "dx100_run_dx100_0_instructions",
	} {
		val, ok := metricValue(out, series)
		if !ok {
			t.Errorf("run metrics missing %s:\n%s", series, out)
			continue
		}
		if val == "0" {
			t.Errorf("%s = 0; a gather run must move data", series)
		}
		if !strings.Contains(out, series+label) {
			t.Errorf("%s not labeled with the run id", series)
		}
	}

	if _, code := scrape(t, ts, "/v1/runs/no-such-run/metrics"); code != http.StatusNotFound {
		t.Errorf("unknown run id = %d, want 404", code)
	}
}

// TestMetricsScrapeUnderChurn hammers submissions, cancellations and
// status reads from many goroutines while concurrently scraping
// /metrics — the -race run of this test is the pin for satellite 4:
// the gauges' reads must not race the handlers' writes.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	const (
		submitters = 4
		scrapers   = 3
		perWorker  = 12
	)
	var subWG, scrapeWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct max_cycles per submission defeats coalescing,
				// and the tiny limit makes each run fail fast — churn,
				// not simulation time.
				body := fmt.Sprintf(
					`{"workload":"micro.gather","scale":1,"overrides":{"max_cycles":%d}}`,
					100+g*perWorker+i)
				sr, code := postRun(t, ts, body)
				if code != http.StatusAccepted {
					continue // queue full under churn is fine
				}
				if i%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+sr.ID, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
				if resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID); err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	for g := 0; g < scrapers; g++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, code := scrape(t, ts, "/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape = %d", code)
					return
				}
				if _, ok := metricValue(out, "dx100d_queue_depth"); !ok {
					t.Error("scrape lost queue depth mid-churn")
					return
				}
				if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	// Scrapers keep hitting /metrics for the whole submission storm,
	// then stop. Shutdown (via t.Cleanup) drains whatever is queued.
	subWG.Wait()
	close(stop)
	scrapeWG.Wait()

	out, _ := scrape(t, ts, "/metrics")
	if v, ok := metricValue(out, "dx100d_submissions"); !ok || v == "0" {
		t.Fatalf("no submissions recorded after churn (got %q)", v)
	}
}

// TestServerMetricsAreRaceFree bumps a request-path counter, the
// in-flight gauge and the job-duration histogram from many goroutines
// while others snapshot them; under -race it pins serverMetrics'
// synchronization, and the totals pin that no update is lost.
func TestServerMetricsAreRaceFree(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	m := s.metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.submissions.Add(1)
				m.inFlight.Add(1)
				m.observeJob(time.Duration(j%10) * time.Millisecond)
				_ = s.metricsSnapshot()
			}
		}()
	}
	wg.Wait()
	snap := s.metricsSnapshot()
	if snap.Counters["submissions"] != 4000 {
		t.Fatalf("submissions = %v, want 4000", snap.Counters["submissions"])
	}
	if snap.Gauges["jobs.inflight"] != 4000 {
		t.Fatalf("jobs.inflight = %v, want 4000", snap.Gauges["jobs.inflight"])
	}
	if snap.Gauges["cache.entries"] != 0 {
		t.Fatalf("live cache.entries gauge = %v on an empty cache", snap.Gauges["cache.entries"])
	}
	if snap.Histograms["job.duration_seconds"].Count != 4000 {
		t.Fatalf("job duration count = %d, want 4000", snap.Histograms["job.duration_seconds"].Count)
	}
}
