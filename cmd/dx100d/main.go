// Command dx100d runs the DX100 experiment service: a long-running
// daemon that accepts simulation jobs over HTTP, deduplicates and
// caches them by content-addressed config hash, and streams progress.
//
// Usage:
//
//	dx100d                                  # serve on :8100, in-memory cache
//	dx100d -addr :9000 -cache /var/dx100    # persistent result cache
//	dx100d -workers 4 -queue 128 -timeout 30m
//	dx100d -pprof                           # mount /debug/pprof/
//
// Quick check once it is up:
//
//	curl -s localhost:8100/healthz
//	curl -s -X POST localhost:8100/v1/runs \
//	     -d '{"workload":"micro.gather","mode":"dx100","scale":1}'
//	curl -s localhost:8100/v1/runs/<id>
//	curl -N localhost:8100/v1/runs/<id>/events
//	curl -s localhost:8100/v1/runs/<id>/trace   # Perfetto-loadable spans
//	curl -s 'localhost:8100/v1/figures/9?scale=1&workloads=IS,GZZ'
//
// Or open http://localhost:8100/dashboard in a browser for the live
// view. Logs are structured JSON on stderr, one line per HTTP request
// and job transition, correlated by trace_id.
//
// A run or figure may ask for at most scale 64, a max_cycles override
// may only lower the default cycle limit, and llc_bytes and tile_elems
// overrides must lie in [1 MiB, 64 MiB] and [1024, 32768]; anything
// beyond gets 400. Every figure job runs on one pool of -figworkers
// simulations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dx100/internal/obs/prof"
	"dx100/internal/serve"
	"dx100/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", ":8100", "listen address")
		workers    = flag.Int("workers", 2, "concurrent job executors")
		queueDepth = flag.Int("queue", 64, "bounded job-queue depth (full submissions get 503)")
		cacheDir   = flag.String("cache", "", "result cache directory (empty = in-memory only)")
		timeout    = flag.Duration("timeout", 0, "per-job wall-clock budget (0 = none)")
		figWorkers = flag.Int("figworkers", 0, "per-figure experiment pool width (0 = one per CPU)")
		profWin    = flag.Int64("profile-window", int64(prof.DefaultWindow), "telemetry sampling interval in cycles for run jobs: live `timeline` SSE events plus GET /v1/runs/{id}/timeline (0 = off)")
		drain      = flag.Duration("drain", 2*time.Minute, "graceful-shutdown budget before in-flight jobs are canceled")
		pprof      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator-only: exposes heap contents)")
		logLevel   = flag.String("log-level", "info", "minimum slog level: debug, info, warn, error")
	)
	flag.Parse()
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "dx100d: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := serve.New(serve.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		JobTimeout:    *timeout,
		CacheDir:      *cacheDir,
		FigWorkers:    *figWorkers,
		ProfileWindow: sim.Cycle(*profWin),
		Logger:        logger,
		Pprof:         *pprof,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dx100d:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"queue", *queueDepth, "cache", *cacheDir, "pprof", *pprof)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dx100d:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down: draining jobs", "budget", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dx100d:", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
