package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dx100/internal/exp"
	"dx100/internal/obs/prof"
	"dx100/internal/obs/span"
	"dx100/internal/serve"
	"dx100/internal/sim"
	"dx100/internal/workloads/pattern"
)

// Service workload parameters: two closed-loop clients (one per host
// CPU) against dx100d's default two workers; wall_s is reported per
// windowReqs completed requests; a seeded sample of verifyCold cold
// specs is re-run directly and compared byte for byte; set-up, a few
// milliseconds, is repeated setupReps times.
const (
	svcClients = 2
	windowReqs = 100
	verifyCold = 3
	setupReps  = 20
	// requestTimeout bounds one request, waiting included; a cold job
	// takes well under a second.
	requestTimeout = time.Minute
)

// svcResult is one completed request of the closed loop.
type svcResult struct {
	Req     int // index into the request sequence
	Spec    int
	Fresh   bool
	JobID   string
	Latency time.Duration // POST to Result in hand
	Submit  time.Duration // POST round trip
	Status  time.Duration // final GET /v1/runs/{id} round trip
	Done    time.Duration // completion, from the window's start
	Hash    time.Duration // client-side Spec.Hash
	Body    []byte        // the served Result bytes
	Created time.Time     // the job's creation, from its status doc
	Trace   string        // the client's trace id (traced window)
	Err     error
}

// svcWindow is one measured window against one fresh server.
type svcWindow struct {
	srv     *serve.Server
	ts      *httptest.Server
	results []svcResult
	elapsed time.Duration
	fresh   int // fresh specs submitted
	refused int // 503 answers
	hitRate float64
}

// svcStatus is the subset of the GET /v1/runs/{id} document the
// benchmark reads.
type svcStatus struct {
	Status  string          `json:"status"`
	Created time.Time       `json:"created"`
	Spec    *exp.Spec       `json:"spec"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
}

// newServer builds an in-process dx100d with the default configuration
// and serves it over a local httptest listener.
func newServer() (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

func closeServer(srv *serve.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// measure runs the closed loop for the given time on srv.
func measure(srv *serve.Server, ts *httptest.Server, t svcTraffic, seconds float64, tr *tracer) *svcWindow {
	w := &svcWindow{srv: srv, ts: ts}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients},
		Timeout:   requestTimeout,
	}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(t.Requests) {
					return
				}
				r := doRequest(client, ts.URL, t, i, tr)
				r.Done = time.Since(start)
				mu.Lock()
				w.results = append(w.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	sort.Slice(w.results, func(i, j int) bool { return w.results[i].Done < w.results[j].Done })
	for _, r := range w.results {
		if r.Fresh {
			w.fresh++
		}
		if errors.Is(r.Err, errRefused) {
			w.refused++
		}
	}
	return w
}

var errRefused = errors.New("request refused with 503")

// doRequest submits request i and waits for its Result: POST, then the
// job's event stream until a terminal event when the job is not done
// yet, then the status document.
func doRequest(client *http.Client, base string, t svcTraffic, i int, tr *tracer) svcResult {
	req := t.Requests[i]
	s := t.Specs[req.Spec]
	r := svcResult{Req: i, Spec: req.Spec, Fresh: req.Fresh}
	sp, err := s.spec()
	if err != nil {
		r.Err = err
		return r
	}
	t0 := time.Now()
	want, err := sp.Hash()
	r.Hash = time.Since(t0)
	if err != nil {
		r.Err = err
		return r
	}
	body, err := json.Marshal(s.requestBody())
	if err != nil {
		r.Err = err
		return r
	}

	op := tr.startOp("request")
	defer op.End()
	r.Trace = op.Context().Trace.String()
	t0 = time.Now()
	post := tr.child("http.post", op)
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	code, echo, err := call(client, http.MethodPost, base+"/v1/runs", body, post, &sub)
	post.End()
	r.Submit = time.Since(t0)
	switch {
	case err != nil:
		r.Err = err
		return r
	case code == http.StatusServiceUnavailable:
		r.Err = errRefused
		return r
	case code != http.StatusAccepted:
		r.Err = fmt.Errorf("POST /v1/runs: status %d", code)
		return r
	case sub.ID != want:
		r.Err = fmt.Errorf("job id %s, want the spec hash %s", sub.ID, want)
		return r
	case tr != nil && !strings.Contains(echo, r.Trace):
		r.Err = fmt.Errorf("dx100d did not continue trace %s (traceparent %q)", r.Trace, echo)
		return r
	}
	r.JobID = sub.ID
	if sub.Status != "done" && sub.Status != "failed" && sub.Status != "canceled" {
		wait := tr.child("sse.wait", op)
		err = awaitTerminal(client, base+"/v1/runs/"+sub.ID+"/events", wait)
		wait.End()
		if err != nil {
			r.Err = err
			return r
		}
	}
	t1 := time.Now()
	get := tr.child("http.status", op)
	var st svcStatus
	code, _, err = call(client, http.MethodGet, base+"/v1/runs/"+sub.ID, nil, get, &st)
	get.End()
	now := time.Now()
	r.Status, r.Latency = now.Sub(t1), now.Sub(t0)
	switch {
	case err != nil:
		r.Err = err
	case code != http.StatusOK:
		r.Err = fmt.Errorf("GET /v1/runs/%s: status %d", sub.ID[:12], code)
	case st.Status != "done":
		r.Err = fmt.Errorf("job %s ended %s: %s", sub.ID[:12], st.Status, st.Error)
	default:
		r.Body, r.Created = st.Result, st.Created
		if _, err := exp.DecodeResult(st.Result); err != nil {
			r.Err = err
		}
	}
	return r
}

// call does one JSON request, sending the span's traceparent, and
// decodes a 2xx body into out. It returns the status code and the
// traceparent the daemon echoed.
func call(client *http.Client, method, url string, body []byte, sp *span.Span, out any) (int, string, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c := sp.Context(); c.Valid() {
		req.Header.Set("traceparent", c.Traceparent())
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("traceparent"), nil
}

// awaitTerminal reads a job's server-sent events until its terminal
// event.
func awaitTerminal(client *http.Client, url string, sp *span.Span) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if c := sp.Context(); c.Valid() {
		req.Header.Set("traceparent", c.Traceparent())
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case "done", "failed", "canceled":
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended without a terminal event", url)
}

// check counts the window's requests and failures: transport or job
// errors, refusals, undecodable Results, repeats whose bytes differ
// from the spec's first response, and more simulations than distinct
// cold specs. It returns the first response's bytes per spec.
func (w *svcWindow) check(rep *report) map[int][]byte {
	first := map[int][]byte{}
	order := append([]svcResult(nil), w.results...)
	sort.Slice(order, func(i, j int) bool { return order[i].Req < order[j].Req })
	for _, r := range order {
		rep.attempted++
		switch {
		case r.Err != nil:
			rep.fail(fmt.Errorf("request %d: %w", r.Req, r.Err))
		case first[r.Spec] == nil:
			first[r.Spec] = r.Body
		case !bytes.Equal(first[r.Spec], r.Body):
			rep.fail(fmt.Errorf("request %d: repeat of spec %d returned different bytes", r.Req, r.Spec))
		}
	}
	rep.attempted++
	if got := w.srv.SimRuns(); got != int64(w.fresh) {
		rep.fail(fmt.Errorf("dx100d ran %d simulations for %d distinct cold specs", got, w.fresh))
	}
	return first
}

// wall is the window's host time per windowReqs completed requests.
// Over the whole window the cold specs' differing costs average out.
func (w *svcWindow) wall() float64 {
	return w.elapsed.Seconds() * windowReqs / float64(max(1, len(w.results)))
}

// freshCycles sums the simulated cycles of the window's cold Results.
func (w *svcWindow) freshCycles() float64 {
	var c float64
	for _, r := range w.results {
		if r.Fresh && r.Err == nil {
			if res, err := exp.DecodeResult(r.Body); err == nil {
				c += float64(res.Cycles)
			}
		}
	}
	return c
}

// latencies splits request latencies in ms into cold and repeat sets.
func (w *svcWindow) latencies() (cold, hit []float64) {
	for _, r := range w.results {
		if r.Err != nil {
			continue
		}
		ms := float64(r.Latency.Nanoseconds()) / 1e6
		if r.Fresh {
			cold = append(cold, ms)
		} else {
			hit = append(hit, ms)
		}
	}
	return cold, hit
}

// hitRatio reads the share of submissions dx100d answered without a new
// simulation from GET /metrics.json.
func (w *svcWindow) readHitRatio() error {
	resp, err := http.Get(w.ts.URL + "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	w.hitRate = ratio(m.Counters["cache.hits"]+m.Counters["coalesced"], m.Counters["submissions"])
	return nil
}

// verify re-runs a seeded sample of cold specs directly, from the spec
// in each job's status document, and requires the served bytes. It
// returns the direct runs for the sim.* layer metrics.
func (w *svcWindow) verify(seed int64, first map[int][]byte, rep *report, tr *tracer) []simRun {
	var cold []svcResult
	for _, r := range w.results {
		if r.Fresh && r.Err == nil {
			cold = append(cold, r)
		}
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i].Req < cold[j].Req })
	rng := rand.New(rand.NewSource(subSeed(seed, "verify")))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	var runs []simRun
	for _, r := range cold[:min(verifyCold, len(cold))] {
		rep.attempted++
		run, err := w.directRun(r, first[r.Spec], tr)
		if err != nil {
			rep.fail(fmt.Errorf("cold spec %d: %w", r.Spec, err))
			continue
		}
		runs = append(runs, run)
	}
	return runs
}

// directRun fetches a job's spec and runs it with exp.Spec.Run.
func (w *svcWindow) directRun(r svcResult, served []byte, tr *tracer) (simRun, error) {
	run := simRun{Case: r.JobID}
	var st svcStatus
	code, _, err := call(http.DefaultClient, http.MethodGet, w.ts.URL+"/v1/runs/"+r.JobID, nil, nil, &st)
	if err != nil {
		return run, err
	}
	if code != http.StatusOK || st.Spec == nil {
		return run, fmt.Errorf("status %d without a spec", code)
	}
	if h, err := st.Spec.Hash(); err != nil || h != r.JobID {
		return run, fmt.Errorf("status doc spec hashes to %s, want %s (%v)", h, r.JobID, err)
	}
	if st.Spec.Pattern != nil {
		t0 := time.Now()
		if _, err := pattern.Compile(st.Spec.Pattern, st.Spec.Scale); err != nil {
			return run, err
		}
		run.Gen = time.Since(t0)
	}
	var tWarm time.Time
	rt0 := tr.readRuntime()
	t0 := time.Now()
	opts := exp.RunOptions{
		OnPhase: func(name string, begin bool) {
			if name == "warmup" && !begin {
				tWarm = time.Now()
			}
		},
		OnEngineDone: func(e *sim.Engine) {
			run.Engine = time.Since(tWarm)
			run.EngineCycles = uint64(e.Now())
			run.FFJumps, run.FFSkipped = e.FastForwarded()
		},
	}
	if tr != nil {
		opts.ProfileWindow = prof.DefaultWindow
	}
	res, err := st.Spec.Run(opts)
	run.Run = time.Since(t0)
	run.Rt = tr.readRuntime().sub(rt0)
	if err != nil {
		return run, err
	}
	run.Res = res
	res.Timeline, res.Stalls = nil, nil
	t0 = time.Now()
	js, err := exp.ResultJSON(res)
	run.Encode = time.Since(t0)
	if err != nil {
		return run, err
	}
	if !bytes.Equal(js, served) {
		return run, errors.New("direct Spec.Run differs from the served Result")
	}
	return run, nil
}

func runService(seed int64, seconds float64, trace bool, rep *report) error {
	var (
		t      svcTraffic
		srv    *serve.Server
		ts     *httptest.Server
		setups []float64
		err    error
	)
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			closeServer(srv, ts)
		}
		t0 := time.Now()
		t = newTraffic(seed)
		if srv, ts, err = newServer(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w := measure(srv, ts, t, seconds, nil)
	first := w.check(rep)
	if err := w.readHitRatio(); err != nil {
		rep.fail(err)
	}
	w.verify(seed, first, rep, nil)
	closeServer(srv, ts)

	wall := w.wall()
	rep.e2e("wall_s", wall, "s", fmt.Sprintf("host time per %d completed requests (%d requests in %.1f s, 20%% fresh, %d clients)", windowReqs, len(w.results), w.elapsed.Seconds(), svcClients))
	rep.e2e("sim_mcps", ratio(w.freshCycles(), w.elapsed.Seconds())/1e6, "Mcycles/s", "cold jobs' simulated cycles per host second of the window")
	rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups: request sequence and pattern files, server construction", len(setups)))
	rep.info("jobs_per_s", ratio(float64(len(w.results)), w.elapsed.Seconds()), "1/s", "completed requests per second, closed loop")
	cold, hit := w.latencies()
	latencyInfo(rep, "cold", cold, "POST to terminal status and Result, fresh spec")
	latencyInfo(rep, "hit", hit, "POST to Result, repeated spec")
	rep.layer("serve.hit_ratio", w.hitRate, "fraction")
	rep.layer("serve.sim_runs", float64(w.srv.SimRuns()), "count")
	rep.layer("serve.rejected", float64(w.refused), "count")
	if !trace {
		return nil
	}

	if srv, ts, err = newServer(); err != nil {
		return err
	}
	defer closeServer(srv, ts)
	tr := newTracer()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := tr.readRuntime()
	tw := measure(srv, ts, t, seconds, tr)
	rt := tr.readRuntime().sub(rt0)
	pprof.StopCPUProfile()
	tfirst := tw.check(rep)
	rep.attempted++
	matched := 0
	for spec, b := range tfirst {
		if a, ok := first[spec]; ok {
			matched++
			if digest(a) != digest(b) {
				rep.fail(fmt.Errorf("spec %d: traced Result sha256 %s differs from untraced %s", spec, digest(b)[:12], digest(a)[:12]))
			}
		}
	}
	if matched == 0 {
		rep.fail(errors.New("traced and untraced windows share no spec to compare"))
	}
	shares, err := hostShares(cpu.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		rep.layer("host_share."+k, v, "%")
	}
	rep.layer("trace_overhead_pct", (ratio(tw.wall(), wall)-1)*100, "%")
	// The direct runs give the engine-side layers; dx100d's spans and
	// the clients' own timings then replace the exp.* figures the
	// direct runs cannot see.
	direct := tw.verify(seed, tfirst, rep, tr)
	engineLayers(rep, direct)
	if err := tw.daemonLayers(tr, rep); err != nil {
		return err
	}
	tw.clientLayers(rep)
	goLayers(rep, rt, float64(max(1, tw.fresh)))
	var profiled []exp.Result
	for _, r := range direct {
		profiled = append(profiled, r.Res)
	}
	simprofLayers(rep, profiled)
	var results []exp.Result
	var weights []float64
	for _, r := range tw.results {
		if r.Fresh && r.Err == nil {
			if res, err := exp.DecodeResult(r.Body); err == nil {
				results = append(results, res)
				weights = append(weights, float64(res.Cycles))
			}
		}
	}
	counterLayers(rep, results, weights)
	ident := map[string]any{}
	for spec, b := range tfirst {
		res, err := exp.DecodeResult(b)
		if err != nil {
			return err
		}
		ident[fmt.Sprintf("spec-%d", spec)] = map[string]any{"cycles": uint64(res.Cycles), "sha256": digest(b)}
	}
	rep.extra["results"] = ident
	return tr.write(rep, "service")
}

// latencyInfo prints a latency set's median and highest supported
// percentile with the sample count, and records them.
func latencyInfo(rep *report, name string, ms []float64, what string) {
	n := len(ms)
	rep.layer(name+"_n", float64(n), "count")
	tl, ok := tailPercentile(ms)
	if !ok {
		fmt.Printf("end-to-end %s latency: %d samples, too few for a median with ten beyond it\n", name, n)
		return
	}
	rep.info(name+"_p50_ms", median(ms), "ms", fmt.Sprintf("%s; n=%d", what, n))
	rep.info(name+"_tail_ms", tl.Value, "ms", fmt.Sprintf("p%g; n=%d", tl.Pctl, n))
	rep.layer(name+"_tail_pctl", tl.Pctl, "percentile")
}

// daemonLayers fetches each cold job's spans from GET
// /v1/runs/{id}/trace, merges them into the span file, checks that they
// continue a client request's trace, and reports the serve layer's self
// times.
func (w *svcWindow) daemonLayers(tr *tracer, rep *report) error {
	traces := map[int]map[string]bool{} // spec -> client trace ids
	for _, r := range w.results {
		if traces[r.Spec] == nil {
			traces[r.Spec] = map[string]bool{}
		}
		traces[r.Spec][r.Trace] = true
	}
	self := map[string][]float64{}
	seen := map[string]bool{}
	for _, r := range w.results {
		if !r.Fresh || r.Err != nil || seen[r.JobID] {
			continue
		}
		seen[r.JobID] = true
		resp, err := http.Get(w.ts.URL + "/v1/runs/" + r.JobID + "/trace")
		if err != nil {
			return err
		}
		doc, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		spans, err := tr.addDaemon(doc, r.Created)
		if err != nil {
			return err
		}
		rep.attempted++
		for _, s := range spans {
			if !traces[r.Spec][s.Trace] {
				rep.fail(fmt.Errorf("job %s span %s is in trace %s, not a client request's", r.JobID[:12], s.Name, s.Trace))
				break
			}
		}
		for name, v := range selfTimes(spans) {
			self[name] = append(self[name], v...)
		}
	}
	ms := func(name string) float64 { return median(self[name]) / 1000 }
	rep.layer("serve.queue_wait_ms", ms("queue.wait"), "ms")
	rep.layer("serve.run_ms", ms("run"), "ms")
	rep.layer("serve.encode_ms", ms("encode"), "ms")
	rep.layer("serve.cache_put_ms", ms("cache.put"), "ms")
	rep.layer("serve.cache_lookup_us", median(self["cache.lookup"]), "us")
	rep.layer("exp.run_s", (mean(self["run"])+mean(self["phase.warmup"]))/1e6, "s")
	rep.layer("exp.warmup_s", mean(self["phase.warmup"])/1e6, "s")
	return nil
}

// clientLayers reports the clients' round trips and Spec.Hash cost.
func (w *svcWindow) clientLayers(rep *report) {
	var sub, stat, hash []float64
	for _, r := range w.results {
		if r.Err != nil {
			continue
		}
		sub = append(sub, float64(r.Submit.Nanoseconds())/1e6)
		stat = append(stat, float64(r.Status.Nanoseconds())/1e6)
		hash = append(hash, float64(r.Hash.Nanoseconds())/1e3)
	}
	rep.layer("serve.submit_ms", median(sub), "ms")
	rep.layer("serve.status_ms", median(stat), "ms")
	rep.layer("exp.hash_us", mean(hash), "us")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
