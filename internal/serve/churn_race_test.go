//go:build race

// This file only builds under the race detector: it is the -race pin
// for profiled runs inside the daemon. The assertions are deliberately
// weak — the point is the interleaving, not the values — so the
// ordinary test matrix stays fast while `go test -race` gets a workload
// that overlaps worker-pool runs, metrics scraping, Check hooks
// (per-job context polling plus simprof sampling), and mid-flight
// cancellation, mirroring TestMetricsScrapeUnderChurn.

package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

func TestProfiledChurnRace(t *testing.T) {
	// The profile window arms the simprof sampler so every run's Check
	// hook does real work concurrently with the other workers' runs.
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, ProfileWindow: 4096})

	const (
		submitters = 4
		scrapers   = 2
		perWorker  = 8
	)
	var subWG, scrapeWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; i < perWorker; i++ {
				seq := g*perWorker + i
				// Distinct max_cycles defeats coalescing. The cap is high
				// enough that the profiler samples several windows
				// before the limit fires.
				body := fmt.Sprintf(
					`{"workload":"micro.gather","scale":1,"overrides":{"max_cycles":%d}}`,
					40000+seq)
				sr, code := postRun(t, ts, body)
				if code != http.StatusAccepted {
					continue // queue full under churn is fine
				}
				if i%3 == 0 {
					// Cancel some jobs mid-flight: the per-job context is
					// polled from the engine's Check hook, so this races a
					// cancellation against a live run.
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
			}
		}()
	}
	subWG.Wait()
	close(stop)
	scrapeWG.Wait()

	out, _ := scrape(t, ts, "/metrics")
	if v, ok := metricValue(out, "dx100d_submissions"); !ok || v == "0" {
		t.Fatalf("no submissions recorded after churn (got %q)", v)
	}
}
