// Command abndpproxy is the serving-fleet coordinator: a reverse proxy
// that fronts N abndpserve backends behind the same HTTP/JSON API one
// backend exposes. Submissions are routed by consistent hash on the
// canonical request key (so dedup works fleet-wide), skipping backends
// that health probes or a circuit breaker mark unhealthy or that are
// draining; mid-flight failures re-dispatch to the next healthy backend
// with jittered backoff, and a done status an owner reports after its job
// was failed over is cross-checked against the result_hash the job
// finished with. A job whose second owner dies with it is failed as
// poisoned instead of being dispatched again.
//
// The proxy's job table keeps each finished job's terminal status and
// answers its later polls and duplicate submissions itself, so a result
// outlives the backend that computed it; -job-cap bounds the finished
// jobs it keeps. A draining backend finishes its queued jobs itself; the
// proxy only stops routing new work to it.
//
// Usage:
//
//	abndpproxy -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	abndpproxy -addr :8080 -backends ... -attempts 4
//	abndpproxy -job-cap 4096              # finished jobs kept for polling
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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with injectable arguments and log stream, returning the exit
// code: 2 for a usage error (a bad flag, no or a relative -backends URL,
// a bad -log or -log-level value), 1 when listening or serving fails, 0
// after a clean shutdown.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("abndpproxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		backends = fs.String("backends", "", "comma-separated abndpserve base URLs (required)")
		attempts = fs.Int("attempts", 3, "full-fleet dispatch rounds before rejecting a submission")
		attemptT = fs.Duration("attempttimeout", 15*time.Second, "per-backend submit attempt deadline")
		probeIv  = fs.Duration("probe", 500*time.Millisecond, "readiness-probe interval")
		failThr  = fs.Int("failthreshold", 3, "consecutive failures that open a backend's circuit breaker")
		halfOpen = fs.Duration("halfopen", 3*time.Second, "open-breaker cool-down before the half-open recovery trial")
		jobCap   = fs.Int("job-cap", 1024, "terminal fleet jobs retained before LRU eviction (0 disables the cap)")
		logFmt   = fs.String("log", "json", "structured log format on stderr: json or text")
		logLevel = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "abndpproxy:", err)
		return 1
	}

	var urls []string
	for _, raw := range strings.Split(*backends, ",") {
		if raw = strings.TrimSpace(raw); raw != "" {
			urls = append(urls, raw)
		}
	}
	// Flag 0 means "off"; fleet.Config treats 0 as "default", so map it
	// to the explicit disable value.
	jobs := *jobCap
	if jobs <= 0 {
		jobs = -1
	}
	logger, err := buildLogger(stderr, *logFmt, *logLevel)
	if err == nil && len(urls) == 0 {
		err = errors.New("at least one -backends URL is required")
	}
	var coord *fleet.Coordinator
	if err == nil {
		// New fails only on a -backends URL that is not absolute.
		coord, err = fleet.New(fleet.Config{
			Backends:       urls,
			ProbeInterval:  *probeIv,
			FailThreshold:  *failThr,
			HalfOpenAfter:  *halfOpen,
			MaxAttempts:    *attempts,
			AttemptTimeout: *attemptT,
			JobCap:         jobs,
			Logger:         logger,
		})
	}
	if err != nil {
		fmt.Fprintln(stderr, "abndpproxy:", err)
		return 2
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	logger.Info("proxying", "addr", ln.Addr().String(), "backends", urls,
		"attempts", *attempts, "job_cap", jobs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return fail(err)
	}
	stop()

	// The proxy holds no durable job state — in-flight polls just need the
	// listener to finish out. Backends drain themselves on their own
	// SIGTERM.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(sctx)
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return fail(err)
	}
	logger.Info("stopped")
	return 0
}

// buildLogger constructs the slog logger on w from the -log/-log-level
// flags.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log %q (json or text)", format)
	}
}
