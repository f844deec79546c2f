// Package serve is the long-running simulation service behind
// cmd/abndpserve: an HTTP/JSON front end over the bench harness's
// crash-guarded single-run seam (bench.Runner.RunOne).
//
// A service process amortizes what the batch CLIs pay per invocation —
// process startup, input generation, and placement cost vectors — across
// many clients. Submissions deduplicate by canonical (app, design, config,
// params) key onto one job, in flight or finished, so a key runs once
// while the server keeps its job. A finished job keeps only what its
// status renders (summary, hash, error, timestamps), and the server keeps
// the newest keepFinished of them: a poll of an older one is a 404, and a
// resubmission of its key runs again, with the same hash.
//
// Concurrency and flow control:
//
//   - a bounded job queue with explicit backpressure: submissions beyond
//     the queue capacity are rejected with 429 and a Retry-After header
//     rather than buffered without bound;
//   - a fixed worker pool (GOMAXPROCS-wide by default) executes jobs
//     through bench.Runner.RunOneObserved, so every simulation stays
//     single-goroutine and deterministic;
//   - per-job deadlines ride on the harness's crash-isolation guard: a
//     panicking or deadline-exceeding run becomes a failed job carrying
//     the recorded RunFailure, never a hung worker or a placeholder
//     passed off as data;
//   - graceful drain: Drain stops admissions (503), lets queued and
//     running jobs finish, and returns when the pool is idle.
//
// See docs/SERVING.md for the API reference.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abndp/internal/bench"
	"abndp/internal/config"
	"abndp/internal/ndp"
	"abndp/internal/obs"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Config parameterizes a Server.
type Config struct {
	// ID names this backend within a serving fleet (abndpserve -id). It is
	// echoed on every response as the X-ABNDP-Backend header, in job
	// statuses, and on /healthz and /readyz, so the fleet proxy
	// (internal/fleet) and clients can attribute work to a process. Empty
	// means unnamed (a standalone server).
	ID string
	// Workers is the simulation worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueSize bounds the pending-job queue; 0 means 64. Submissions
	// beyond it get 429 + Retry-After.
	QueueSize int
	// RunDeadline is the per-job wall-clock deadline enforced by the
	// crash-isolation guard; 0 keeps the harness default (10m), negative
	// disables it.
	RunDeadline time.Duration
	// Quick shrinks default workload sizings to smoke-test scale.
	Quick bool
	// Check audits every simulation (invariants + dual-run hash).
	Check bool
	// Base overrides the Table 1 base configuration (nil = config.Default()).
	// Tests use it to shrink per-unit memory.
	Base *config.Config
	// Checkpoint is a no-op, kept so existing callers still compile. Every
	// server shares one checkpoint store across the requests it handles,
	// as every bench.Runner does: jobs that vary only late-binding
	// scheduler knobs reuse the placement cost vectors of earlier jobs with
	// the same prefix key (docs/PERF.md). Results stay byte-identical.
	Checkpoint bool
	// TraceDir, when set, writes one Perfetto trace per executed job to
	// <TraceDir>/<job-id>.trace.json: the serve-tier request spans (submit,
	// queue wait, run) and the engine's task spans and counter tracks on
	// one timeline, keyed by request ID. Jobs that dedup onto an existing
	// key write no new trace.
	TraceDir string
	// Logger receives structured request-lifecycle logs keyed by request
	// ID (submit, run start/done, render, drain). Nil discards them;
	// cmd/abndpserve installs a JSON handler on stderr.
	Logger *slog.Logger
}

// Server is the simulation service. Create with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	cfg    Config
	base   config.Config
	runner *bench.Runner
	mux    *http.ServeMux
	log    *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job // by ID
	byKey    map[string]*job // dedup: canonical cache key -> job
	finished []*job          // finished jobs, oldest first
	keep     int             // keepFinished; tests lower it
	nextID   int64
	draining bool
	queue    chan *task

	// ready gates /readyz: false until the worker pool is up, false again
	// once draining. Liveness (/healthz answering at all) and readiness
	// (willing to accept work) are distinct — the fleet proxy routes on
	// readiness.
	ready atomic.Bool

	nextReq atomic.Int64 // request-ID sequence (every submission, dedup included)

	wg       sync.WaitGroup // worker pool
	renderMu sync.Mutex     // serializes experiment renders

	// The server's series in its Runner's registry, looked up once in New:
	// /metrics and /debug/vars render them, /healthz, /readyz and
	// Retry-After read them.
	submitted, deduped, rejected, completed, failed *obs.Counter
	queueWait, runTime, request, render             *obs.SyncHist
}

// keepFinished bounds the finished jobs a Server keeps for polls and
// dedup; beyond it the oldest finished job is evicted. In-flight jobs are
// never evicted. It is no smaller than the fleet proxy's default JobCap,
// so a key the proxy has evicted is still answered by the backend that
// ran it.
const keepFinished = 1024

// job is one tracked simulation: what its status renders. Mutable fields
// are guarded by Server.mu; done closes when the job reaches a terminal
// state. A finished job keeps its summary, not its result.
type job struct {
	id          string
	reqID       string // the originating request's ID (dedup joins keep their own)
	key         string
	app, design string
	done        chan struct{}

	state              string
	submitted, started time.Time
	finished           time.Time
	sum                *RunSummary
	hash               uint64
	errMsg             string
	hung               bool
	violations         int
	traceFile          string
}

// task is a queued job plus what only its run needs. The job record does
// not hold these, so a finished job keeps none of them.
type task struct {
	j     *job
	spec  bench.Spec
	check bool
	trace *obs.ReqTrace // request-scoped spans, anchored at submit
}

// New builds a Server and starts its worker pool. The server's metrics
// live in its own Runner's registry, beside the Runner's bench_runs_*
// counters, so two servers in one process each report only their own.
// The latency histograms take microsecond samples and render seconds;
// p50/p95/p99 are recoverable from their log-spaced buckets, server-side
// via histogram_quantile and in-process via obs.SyncHist.Quantile (the
// /healthz latency block).
func New(cfg Config) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	base := config.Default()
	if cfg.Base != nil {
		base = *cfg.Base
	}
	r := bench.NewRunner(io.Discard)
	r.SetQuick(cfg.Quick)
	r.SetWorkers(cfg.Workers)
	if cfg.RunDeadline != 0 {
		r.SetRunDeadline(cfg.RunDeadline)
	}
	r.SetCheck(cfg.Check)

	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := r.Registry()
	s := &Server{
		cfg:       cfg,
		base:      base,
		runner:    r,
		log:       logger,
		jobs:      make(map[string]*job),
		byKey:     make(map[string]*job),
		keep:      keepFinished,
		queue:     make(chan *task, cfg.QueueSize),
		submitted: reg.Counter("serve_jobs_submitted"),
		deduped:   reg.Counter("serve_jobs_deduped"),
		rejected:  reg.Counter("serve_jobs_rejected"),
		completed: reg.Counter("serve_jobs_completed"),
		failed:    reg.Counter("serve_jobs_failed"),
		queueWait: reg.Hist("serve_queue_wait_seconds",
			"Time a job waited in the bounded queue, submit to run start.", 1e-6),
		runTime: reg.Hist("serve_run_seconds", "Job execution time in the worker pool.", 1e-6),
		request: reg.Hist("serve_request_seconds",
			"End-to-end job latency, submit to terminal state.", 1e-6),
		render: reg.Hist("serve_render_seconds",
			"Experiment table/figure render time (GET /v1/experiments).", 1e-6),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", reg.JSONHandler())
	s.mux.Handle("GET /metrics", reg.Handler())
	reg.Gauge("serve_queue_depth", func() float64 { return float64(len(s.queue)) })
	reg.Gauge("serve_events_total", func() float64 {
		ev, _ := r.EngineTotals()
		return float64(ev)
	})
	reg.Gauge("serve_events_per_sec", func() float64 {
		ev, sec := r.EngineTotals()
		if sec <= 0 {
			return 0
		}
		return float64(ev) / sec
	})
	st := r.Store()
	reg.Gauge("serve_ckpt_hits", func() float64 { return float64(st.Stats().Hits) })
	reg.Gauge("serve_ckpt_misses", func() float64 { return float64(st.Stats().Misses) })
	reg.Gauge("serve_ckpt_bytes", func() float64 { return float64(st.Stats().Bytes) })
	reg.Gauge("serve_ckpt_shards", func() float64 { return float64(st.Stats().Shards) })
	reg.Gauge("serve_ckpt_entries", func() float64 { return float64(st.Stats().Entries) })
	reg.Gauge("serve_ckpt_evictions", func() float64 { return float64(st.Stats().Evictions) })

	workers := r.Workers()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// Handler returns the service's HTTP handler. A named backend (Config.ID)
// stamps every response with X-ABNDP-Backend so proxies and clients can
// attribute responses to a process.
func (s *Server) Handler() http.Handler {
	if s.cfg.ID == "" {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-ABNDP-Backend", s.cfg.ID)
		s.mux.ServeHTTP(w, r)
	})
}

// Runner exposes the warm harness runner (shutdown metrics, tests).
func (s *Server) Runner() *bench.Runner { return s.runner }

// worker executes queued jobs until the queue closes on drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.execute(t)
	}
}

// execute runs one job under the crash guard and records its outcome.
func (s *Server) execute(t *task) {
	j := t.j
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()
	s.queueWait.Observe(j.started.Sub(j.submitted).Microseconds())
	s.log.Info("run start", "request_id", j.reqID, "job", j.id,
		"app", j.app, "design", j.design,
		"queue_wait", j.started.Sub(j.submitted))

	// Per-job Perfetto trace: the engine's task spans and counter tracks
	// land here; the serve-tier request spans are appended after the run,
	// so both tiers share one timeline keyed by the request ID.
	var (
		tf *os.File
		tr *obs.Tracer
		o  *obs.Observer
	)
	if s.cfg.TraceDir != "" {
		path := filepath.Join(s.cfg.TraceDir, j.id+".trace.json")
		f, err := os.Create(path)
		if err != nil {
			s.log.Warn("trace file create failed", "request_id", j.reqID, "path", path, "err", err)
		} else {
			tf, tr = f, obs.NewTracer(f, t.spec.Config.CoreGHz)
			o = &obs.Observer{Trace: tr, SampleInterval: 1024}
		}
	}

	// The crash guard's per-run deadline bounds the run.
	res, violations, err := s.runner.RunOneObserved(context.Background(), t.spec, t.check, o)
	finished := time.Now()
	s.runTime.Observe(finished.Sub(j.started).Microseconds())
	s.request.Observe(finished.Sub(j.submitted).Microseconds())

	var re *bench.RunError
	hung := errors.As(err, &re) && re.Failure.Hung
	traceFile := ""
	if tr != nil {
		if hung {
			// The abandoned run's goroutine may still be writing to the
			// tracer; closing or appending here would race. Leak the file
			// handle and drop the trace rather than corrupt it.
			s.log.Warn("abandoning trace of hung run", "request_id", j.reqID, "job", j.id)
		} else {
			t.trace.Span("queue wait", j.submitted, j.started)
			t.trace.Span("run", j.started, finished, "key", j.key)
			t.trace.WriteTo(tr)
			if cerr := tr.Close(); cerr != nil {
				s.log.Warn("trace close failed", "request_id", j.reqID, "err", cerr)
			} else {
				traceFile = tf.Name()
			}
			_ = tf.Close()
		}
	}

	s.mu.Lock()
	j.finished = finished
	j.violations = violations
	j.traceFile = traceFile
	if err != nil {
		j.state, j.errMsg, j.hung = StateFailed, err.Error(), hung
	} else {
		j.state, j.hash = StateDone, ndp.ResultHash(res)
		j.sum = &RunSummary{
			Makespan:      res.Makespan,
			Seconds:       res.Seconds,
			Tasks:         res.Tasks,
			Steps:         res.Steps,
			InterHops:     res.InterHops,
			EnergyUJ:      res.Energy.Total() / 1e6,
			Imbalance:     res.Stats.ImbalanceRatio(),
			CacheHitRate:  res.Stats.CacheHitRate(),
			Unrecoverable: res.Unrecoverable,
		}
	}
	s.finished = append(s.finished, j)
	if len(s.finished) > s.keep {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		delete(s.jobs, old.id)
		delete(s.byKey, old.key)
	}
	s.mu.Unlock()
	close(j.done)

	if err != nil {
		s.failed.Add(1)
		s.log.Error("run failed", "request_id", j.reqID, "job", j.id,
			"err", err.Error(), "hung", hung,
			"elapsed", finished.Sub(j.started))
	} else {
		s.completed.Add(1)
		s.log.Info("run done", "request_id", j.reqID, "job", j.id,
			"hash", fmt.Sprintf("%016x", j.hash),
			"elapsed", finished.Sub(j.started), "trace", traceFile)
	}
}

// handleSubmit admits one job: dedup against in-flight and kept finished
// jobs by canonical cache key, then a non-blocking enqueue with explicit
// 429 backpressure when the bounded queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	spec, err := s.buildSpec(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := spec.Key()
	rid := fmt.Sprintf("req-%06d", s.nextReq.Add(1))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// The hint tells fleet-aware clients when the in-flight backlog
		// should be gone — i.e. when a replacement backend on this address
		// (or the rest of the fleet) is worth another try.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		s.log.Info("submit rejected", "request_id", rid, "reason", "draining", "app", spec.App)
		return
	}
	s.submitted.Add(1)
	if existing := s.byKey[key]; existing != nil {
		st := s.statusLocked(existing)
		s.mu.Unlock()
		s.deduped.Add(1)
		st.Dedup = true
		writeJSON(w, http.StatusOK, st)
		s.log.Info("submit dedup", "request_id", rid, "job", st.ID,
			"joined_request_id", st.RequestID, "key", key)
		return
	}
	now := time.Now()
	j := &job{
		reqID:     rid,
		key:       key,
		app:       spec.App,
		design:    spec.Design.String(),
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: now,
	}
	t := &task{j: j, spec: spec, check: req.Check, trace: obs.NewReqTrace(rid)}
	t.trace.Span("submit", now, now, "app", j.app, "design", j.design)
	select {
	case s.queue <- t:
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusTooManyRequests, "job queue full (%d pending); retry later", cap(s.queue))
		s.log.Warn("submit rejected", "request_id", rid, "reason", "queue full",
			"app", spec.App, "queue_cap", cap(s.queue))
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("run-%06d", s.nextID)
	s.jobs[j.id] = j
	s.byKey[key] = j
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
	s.log.Info("submit accepted", "request_id", rid, "job", j.id,
		"app", j.app, "design", j.design, "key", key)
}

// handleRun reports one job. ?wait=DURATION blocks until the job reaches
// a terminal state or the duration (or the client) gives up — long-poll
// support so clients need not busy-poll.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid wait duration %q: %v", waitStr, err)
			return
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleExperiment renders one paper table/figure on demand from the warm
// cache. Renders are serialized (the planning pass mutates Runner state),
// but overlap normal job execution freely.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t0 := time.Now()
	s.renderMu.Lock()
	var buf bytes.Buffer
	err := s.runner.RenderTo(&buf, name)
	s.renderMu.Unlock()
	s.render.ObserveSince(t0)
	s.log.Info("render", "experiment", name, "elapsed", time.Since(t0), "err", errStr(err))
	if err != nil {
		if strings.Contains(err.Error(), "unknown experiment") {
			httpError(w, http.StatusNotFound, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// meanRunSeconds is the server's observed mean job execution time in
// seconds (zero until a run completes), from its serve_run_seconds
// histogram.
func (s *Server) meanRunSeconds() float64 {
	h := s.runTime.Snapshot()
	return h.Mean() * 1e-6 // samples are microseconds
}

// retryAfterSecs computes the Retry-After hint for a rejected submission
// from the queued backlog and the pool's observed service rate: the time
// for the current backlog to clear through the workers at the mean run
// time. Before the first run completes (no rate observation yet) it falls
// back to 1s; the result is clamped to [1, 60] so a pathological backlog
// never tells clients to go away for hours.
func (s *Server) retryAfterSecs() int {
	return retryAfterFrom(s.meanRunSeconds(), len(s.queue)+1, s.runner.Workers())
}

// retryAfterFrom is the pure Retry-After computation: backlog jobs draining
// through workers at meanRunSecs each. Zero (no completed run yet) and
// non-finite mean observations fall back to 1s; the result is always in
// [1, 60] — an HTTP Retry-After of 0 would tell clients to hammer the
// server in a tight loop, and one of hours would make them give up.
func retryAfterFrom(meanRunSecs float64, backlog, workers int) int {
	if meanRunSecs <= 0 || math.IsNaN(meanRunSecs) || math.IsInf(meanRunSecs, 0) {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	secs := int(math.Ceil(meanRunSecs * float64(backlog) / float64(workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleReadyz is the readiness half of the health split: 200 only when
// the worker pool is up and the server is accepting work, 503 while
// starting or draining. /healthz stays the liveness-plus-counters
// surface; fleet proxies probe /readyz and route on the load factors in
// its body (queue depth, observed service time).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	rd := Ready{
		Status:         "ready",
		BackendID:      s.cfg.ID,
		Workers:        s.runner.Workers(),
		QueueDepth:     len(s.queue),
		QueueCap:       cap(s.queue),
		MeanRunSeconds: s.meanRunSeconds(),
		Completed:      s.completed.Value(),
	}
	code := http.StatusOK
	switch {
	case draining:
		rd.Status = "draining"
		code = http.StatusServiceUnavailable
	case !s.ready.Load():
		rd.Status = "starting"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

// handleHealthz reports liveness plus the service counters. A draining
// server answers 503 so load balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		Status:     "ok",
		BackendID:  s.cfg.ID,
		Workers:    s.runner.Workers(),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Submitted:  s.submitted.Value(),
		Deduped:    s.deduped.Value(),
		Rejected:   s.rejected.Value(),
		Completed:  s.completed.Value(),
		Failed:     s.failed.Value(),
		Runs:       s.runner.RunsExecuted(),
	}
	if snap := s.request.Snapshot(); snap.Count > 0 {
		h.Latency = &LatencySummary{
			Count: snap.Count,
			P50:   s.request.Quantile(0.50),
			P95:   s.request.Quantile(0.95),
			P99:   s.request.Quantile(0.99),
		}
	}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// statusLocked snapshots one job. Caller holds s.mu.
func (s *Server) statusLocked(j *job) *RunStatus {
	st := &RunStatus{
		ID:              j.id,
		RequestID:       j.reqID,
		Key:             j.key,
		Backend:         s.cfg.ID,
		Status:          j.state,
		TraceFile:       j.traceFile,
		App:             j.app,
		Design:          j.design,
		Error:           j.errMsg,
		Hung:            j.hung,
		CheckViolations: j.violations,
		SubmittedAt:     rfc3339(j.submitted),
		StartedAt:       rfc3339(j.started),
		FinishedAt:      rfc3339(j.finished),
	}
	if j.state == StateDone {
		st.ResultHash = fmt.Sprintf("%016x", j.hash)
		st.Result = j.sum
	}
	return st
}

// Drain stops admissions, closes the queue, and waits for queued and
// running jobs to finish, bounded by ctx. It is idempotent; concurrent
// calls all wait. On ctx expiry the pool keeps its in-flight work (the
// crash guard bounds every run) but Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		s.log.Info("drain start", "queued", len(s.queue))
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
