// Command abndpserve is the long-running simulation service: an HTTP/JSON
// front end over the benchmark harness's crash-guarded run seam, serving
// simulation jobs to many concurrent clients with request dedup by
// canonical key, a bounded record of finished jobs (the newest 1024),
// bounded-queue backpressure, and graceful drain on SIGTERM. Every job
// shares the harness's checkpoint store and workload-input cache, so jobs
// that vary only late-binding scheduler knobs reuse earlier jobs' inputs
// and placement vectors (byte-identical results; docs/PERF.md).
//
// Usage:
//
//	abndpserve                        # serve on :8080
//	abndpserve -addr :9000 -j 8       # 8 simulation workers
//	abndpserve -id b1                 # named backend inside an abndpproxy fleet
//	abndpserve -quick                 # shrunken default workloads (demo)
//	abndpserve -queue 128             # larger pending-job queue
//	abndpserve -check                 # audit every simulation
//	abndpserve -rundeadline 2m        # per-job wall-clock deadline
//	abndpserve -trace-dir traces      # one Perfetto trace per executed job
//	abndpserve -log text              # human-readable logs (default json)
//
// Quick start (see docs/SERVING.md for the API, docs/OBSERVABILITY.md for
// the metrics/tracing surface):
//
//	abndpserve -quick &
//	curl -s -X POST localhost:8080/v1/runs -d '{"app":"pr","design":"O"}'
//	curl -s 'localhost:8080/v1/runs/run-000001?wait=60s'
//	curl -s localhost:8080/v1/experiments/tab1
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics          # Prometheus exposition
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
	"syscall"
	"time"

	"abndp/internal/bench"
	"abndp/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with injectable arguments and log stream, returning the exit
// code: 2 for a usage error (a bad flag, -log or -log-level value, a
// negative -j, a -queue below 1), 1 when the service fails, 0 after a
// clean drain.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("abndpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		id       = fs.String("id", "", "backend ID within a serving fleet (echoed as X-ABNDP-Backend and in job statuses; see abndpproxy)")
		jobs     = fs.Int("j", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "pending-job queue capacity (full queue returns 429)")
		quick    = fs.Bool("quick", false, "shrink default workload sizings to smoke-test scale")
		chk      = fs.Bool("check", false, "audit every simulation (invariants + dual-run hash; roughly doubles cost)")
		rdl      = fs.Duration("rundeadline", 0, "per-job wall-clock deadline; a job past it fails (0 = the 10m default, negative disables)")
		drainTO  = fs.Duration("draintimeout", 2*time.Minute, "graceful-drain bound on SIGTERM/SIGINT")
		traceDir = fs.String("trace-dir", "", "write one Perfetto trace per executed job to this directory (serve-tier request spans + engine tracks, keyed by request ID)")
		logFmt   = fs.String("log", "json", "structured log format on stderr: json or text")
		logLevel = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "abndpserve:", err)
		return 1
	}

	// The same fail-fast flag validation as abndpbench: a bad flag value,
	// such as a negative -j, is a usage error, not a silent clamp.
	logger, err := buildLogger(stderr, *logFmt, *logLevel)
	if err == nil {
		err = bench.ValidateWorkers(*jobs)
	}
	if err == nil && *queue <= 0 {
		err = fmt.Errorf("queue capacity must be positive (got %d)", *queue)
	}
	if err != nil {
		fmt.Fprintln(stderr, "abndpserve:", err)
		return 2
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
	}

	srv := serve.New(serve.Config{
		ID:          *id,
		Workers:     *jobs,
		QueueSize:   *queue,
		RunDeadline: *rdl,
		Quick:       *quick,
		Check:       *chk,
		TraceDir:    *traceDir,
		Logger:      logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info("serving", "addr", ln.Addr().String(),
		"workers", srv.Runner().Workers(), "queue", *queue,
		"quick", *quick, "check", *chk, "trace_dir", *traceDir)

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

	// Graceful drain: admissions close first (new submissions see 503 and
	// /readyz flips to "draining"), then queued and running jobs finish,
	// bounded by -draintimeout. The listener stays open for the whole
	// drain so clients can still poll results and fleet probes observe
	// "draining" rather than a dead socket; it closes only once the pool
	// is idle.
	logger.Info("draining", "timeout", drainTO.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Error("drain timed out", "err", err.Error())
	}
	_ = httpSrv.Shutdown(dctx)

	r := srv.Runner()
	events, _ := r.EngineTotals()
	logger.Info("drained", "runs", r.RunsExecuted(), "failures", len(r.Failures()),
		"events_total", events)
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return fail(err)
	}
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
