// Command abndpproxy is the serving-fleet coordinator: a reverse proxy
// that fronts N abndpserve backends behind the same HTTP/JSON API one
// backend exposes. Submissions are routed by consistent hash on the
// canonical request key (so dedup works fleet-wide), skipping backends
// that health probes or a circuit breaker mark unhealthy or that are
// draining; mid-flight failures re-dispatch to the next healthy backend
// with jittered backoff, and re-dispatched results are cross-checked
// against the dead owner's result_hash. A job whose second owner dies
// with it is failed as poisoned instead of being dispatched again.
//
// Completed results are additionally memoized in a fleet-wide shared
// result store: after a failover (or a resubmission whose terminal job
// aged out), the proxy answers from the store — hash-verified — and
// replicates the memo to a live backend via POST /v1/runs/{id}/adopt
// instead of recomputing. A draining backend finishes its queued jobs
// itself; the proxy only stops routing new work to it.
//
// Usage:
//
//	abndpproxy -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	abndpproxy -addr :8080 -backends ... -attempts 4
//	abndpproxy -store-size 4096           # shared result store capacity
//	abndpproxy -log text                  # human-readable logs
//
// Quick start (docs/SERVING.md, "Serving fleets"):
//
//	abndpserve -quick -id b1 -addr :8081 &
//	abndpserve -quick -id b2 -addr :8082 &
//	abndpproxy -backends http://127.0.0.1:8081,http://127.0.0.1:8082 &
//	curl -s -X POST localhost:8080/v1/runs -d '{"app":"pr","design":"O"}'
//	curl -s 'localhost:8080/v1/runs/job-000001?wait=60s'
//	curl -s localhost:8080/healthz        # fleet + per-backend health
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"abndp/internal/fleet"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		backends = flag.String("backends", "", "comma-separated abndpserve base URLs (required)")
		attempts = flag.Int("attempts", 3, "full-fleet dispatch rounds before rejecting a submission")
		attemptT = flag.Duration("attempttimeout", 15*time.Second, "per-backend submit attempt deadline")
		probeIv  = flag.Duration("probe", 500*time.Millisecond, "readiness-probe interval")
		failThr  = flag.Int("failthreshold", 3, "consecutive failures that open a backend's circuit breaker")
		halfOpen = flag.Duration("halfopen", 3*time.Second, "open-breaker cool-down before the half-open recovery trial")
		storeSz  = flag.Int("store-size", 1024, "shared result store capacity in completed results (0 disables)")
		jobCap   = flag.Int("job-cap", 1024, "terminal fleet jobs retained before LRU eviction (0 disables the cap)")
		logFmt   = flag.String("log", "json", "structured log format on stderr: json or text")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := buildLogger(*logFmt, *logLevel)
	if err != nil {
		fatal(err)
	}
	var urls []string
	for _, raw := range strings.Split(*backends, ",") {
		if raw = strings.TrimSpace(raw); raw != "" {
			urls = append(urls, raw)
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("at least one -backends URL is required"))
	}

	// Flag 0 means "off"; fleet.Config treats 0 as "default", so map it
	// to the explicit disable value.
	storeSize, jobs := *storeSz, *jobCap
	if storeSize <= 0 {
		storeSize = -1
	}
	if jobs <= 0 {
		jobs = -1
	}
	coord, err := fleet.New(fleet.Config{
		Backends:       urls,
		ProbeInterval:  *probeIv,
		FailThreshold:  *failThr,
		HalfOpenAfter:  *halfOpen,
		MaxAttempts:    *attempts,
		AttemptTimeout: *attemptT,
		StoreSize:      storeSize,
		JobCap:         jobs,
		Logger:         logger,
	})
	if err != nil {
		fatal(err)
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	logger.Info("proxying", "addr", ln.Addr().String(), "backends", urls,
		"attempts", *attempts, "store_size", storeSize, "job_cap", jobs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal(err)
	}
	stop()

	// The proxy holds no durable job state — in-flight polls just need the
	// listener to finish out. Backends drain themselves on their own
	// SIGTERM.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(sctx)
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	logger.Info("stopped")
}

// buildLogger constructs the stderr slog logger from the -log/-log-level
// flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log %q (json or text)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abndpproxy:", err)
	os.Exit(1)
}
