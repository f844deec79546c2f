// Package serve is the long-running simulation service behind
// cmd/abndpserve: an HTTP/JSON front end over the bench harness's warm
// singleflight memo cache, worker pool, and crash guard.
//
// A service process amortizes what the batch CLIs pay per invocation —
// process startup, input generation, and cold result caches — across many
// clients. Identical concurrent submissions deduplicate onto one
// simulation via the canonical (app, design, config, params) cache keys;
// completed results are served from memory for the life of the process.
//
// Concurrency and flow control:
//
//   - a bounded job queue with explicit backpressure: submissions beyond
//     the queue capacity are rejected with 429 and a Retry-After header
//     rather than buffered without bound;
//   - a fixed worker pool (GOMAXPROCS-wide by default) executes jobs
//     through bench.Runner.RunOne, so every simulation stays
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
	"expvar"
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
	nextID   int64
	draining bool
	queue    chan *job

	// ready gates /readyz: false until the worker pool is up, false again
	// once draining. Liveness (/healthz answering at all) and readiness
	// (willing to accept work) are distinct — the fleet proxy routes on
	// readiness.
	ready atomic.Bool

	nextReq atomic.Int64 // request-ID sequence (every submission, dedup included)

	wg       sync.WaitGroup // worker pool
	renderMu sync.Mutex     // serializes experiment renders

	submitted, deduped, rejected, completed, failed, adopted atomic.Int64
}

// job is one tracked simulation. Mutable fields are guarded by Server.mu;
// done closes when the job reaches a terminal state.
type job struct {
	id    string
	reqID string // the originating request's ID (dedup joins keep their own)
	spec  bench.Spec
	key   string
	check bool
	done  chan struct{}
	trace *obs.ReqTrace // request-scoped spans, anchored at submit

	state              string
	submitted, started time.Time
	finished           time.Time
	res                *ndp.Result
	hash               uint64
	errMsg             string
	hung               bool
	violations         int
	traceFile          string

	// Adopted jobs carry a replicated result (POST /v1/runs/{id}/adopt)
	// instead of a local *ndp.Result: the summary and hash another
	// backend computed, registered here so polls and dedup hits for the
	// key are served without a simulation.
	adopted bool
	summary *RunSummary
}

// Process-wide service counters on /debug/vars and /metrics. Registered
// once; multiple Server instances (tests) accumulate into the same
// counters.
var (
	expSubmitted = obs.Published("serve_jobs_submitted")
	expDeduped   = obs.Published("serve_jobs_deduped")
	expRejected  = obs.Published("serve_jobs_rejected")
	expCompleted = obs.Published("serve_jobs_completed")
	expFailed    = obs.Published("serve_jobs_failed")
	expAdopted   = obs.Published("serve_jobs_adopted")
)

// Request-lifecycle latency histograms, exposed on /metrics in Prometheus
// text format. Samples are microseconds; the 1e-6 scale renders seconds.
// p50/p95/p99 are recoverable from the log-spaced buckets — server-side
// via histogram_quantile, in-process via obs.SyncHist.Quantile (the
// /healthz latency block).
var (
	histQueueWait = obs.PublishedHist("serve_queue_wait_seconds",
		"Time a job waited in the bounded queue, submit to run start.", 1e-6)
	histRun = obs.PublishedHist("serve_run_seconds",
		"Job execution time in the worker pool (memo hits return in microseconds; cold simulations in seconds).", 1e-6)
	histRequest = obs.PublishedHist("serve_request_seconds",
		"End-to-end job latency, submit to terminal state.", 1e-6)
	histRender = obs.PublishedHist("serve_render_seconds",
		"Experiment table/figure render time (GET /v1/experiments).", 1e-6)
)

// New builds a Server and starts its worker pool.
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
	s := &Server{
		cfg:    cfg,
		base:   base,
		runner: r,
		log:    logger,
		jobs:   make(map[string]*job),
		byKey:  make(map[string]*job),
		queue:  make(chan *job, cfg.QueueSize),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("POST /v1/runs/{id}/adopt", s.handleAdopt)
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.Handle("GET /metrics", obs.PromHandler())
	obs.PublishedFunc("serve_queue_depth", func() any { return len(s.queue) })
	obs.PublishedFunc("serve_events_total", func() any {
		ev, _ := r.EngineTotals()
		return ev
	})
	obs.PublishedFunc("serve_events_per_sec", func() any {
		ev, sec := r.EngineTotals()
		if sec <= 0 {
			return 0.0
		}
		return float64(ev) / sec
	})
	st := r.Store()
	obs.PublishedFunc("serve_ckpt_hits", func() any { return st.Stats().Hits })
	obs.PublishedFunc("serve_ckpt_misses", func() any { return st.Stats().Misses })
	obs.PublishedFunc("serve_ckpt_bytes", func() any { return st.Stats().Bytes })
	obs.PublishedFunc("serve_ckpt_shards", func() any { return st.Stats().Shards })
	obs.PublishedFunc("serve_ckpt_entries", func() any { return st.Stats().Entries })
	obs.PublishedFunc("serve_ckpt_evictions", func() any { return st.Stats().Evictions })

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
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one job through the warm memo cache and crash guard.
func (s *Server) execute(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()
	histQueueWait.Observe(j.started.Sub(j.submitted).Microseconds())
	s.log.Info("run start", "request_id", j.reqID, "job", j.id,
		"app", j.spec.App, "design", j.spec.Design.String(),
		"queue_wait", j.started.Sub(j.submitted))

	// Per-job Perfetto trace: the engine's task spans and counter tracks
	// land here if (and only if) this job leads the memo computation; the
	// serve-tier request spans are appended after the run, so both tiers
	// share one timeline keyed by the request ID.
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
			tf, tr = f, obs.NewTracer(f, j.spec.Config.CoreGHz)
			o = &obs.Observer{Trace: tr, SampleInterval: 1024}
		}
	}

	// Background suffices as the wait context: the computation — whether
	// this job leads it or joins a leader for the same key — is bounded by
	// the crash guard's per-run deadline, which releases every waiter with
	// the recorded failure when it fires.
	res, err := s.runner.RunOneObserved(context.Background(), j.spec, j.check, o)
	vs := len(s.runner.CheckViolationsFor(j.key))
	finished := time.Now()
	histRun.Observe(finished.Sub(j.started).Microseconds())
	histRequest.Observe(finished.Sub(j.submitted).Microseconds())

	hung := false
	if re, ok := err.(*bench.RunError); ok {
		hung = re.Failure.Hung
	}
	traceFile := ""
	if tr != nil {
		if hung {
			// The abandoned run's goroutine may still be writing to the
			// tracer; closing or appending here would race. Leak the file
			// handle and drop the trace rather than corrupt it.
			s.log.Warn("abandoning trace of hung run", "request_id", j.reqID, "job", j.id)
		} else {
			j.trace.Span("queue wait", j.submitted, j.started)
			j.trace.Span("run", j.started, finished, "key", j.key)
			j.trace.WriteTo(tr)
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
	j.violations = vs
	j.traceFile = traceFile
	switch {
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		if re, ok := err.(*bench.RunError); ok {
			j.hung = re.Failure.Hung
			j.res = res // the marked placeholder, for completeness
		}
	default:
		j.state = StateDone
		j.res = res
		j.hash = ndp.ResultHash(res)
	}
	s.mu.Unlock()
	close(j.done)

	if err != nil {
		s.failed.Add(1)
		expFailed.Add(1)
		s.log.Error("run failed", "request_id", j.reqID, "job", j.id,
			"err", err.Error(), "hung", hung,
			"elapsed", finished.Sub(j.started))
	} else {
		s.completed.Add(1)
		expCompleted.Add(1)
		s.log.Info("run done", "request_id", j.reqID, "job", j.id,
			"hash", fmt.Sprintf("%016x", j.hash),
			"elapsed", finished.Sub(j.started), "trace", traceFile)
	}
}

// handleSubmit admits one job: dedup against in-flight and completed jobs
// by canonical cache key, then a non-blocking enqueue with explicit 429
// backpressure when the bounded queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(r.Body)
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
	expSubmitted.Add(1)
	if existing := s.byKey[key]; existing != nil {
		st := s.statusLocked(existing)
		s.mu.Unlock()
		s.deduped.Add(1)
		expDeduped.Add(1)
		st.Dedup = true
		writeJSON(w, http.StatusOK, st)
		s.log.Info("submit dedup", "request_id", rid, "job", st.ID,
			"joined_request_id", st.RequestID, "key", key)
		return
	}
	now := time.Now()
	j := &job{
		reqID:     rid,
		spec:      spec,
		key:       key,
		check:     req.Check,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: now,
		trace:     obs.NewReqTrace(rid),
	}
	j.trace.Span("submit", now, now, "app", spec.App, "design", spec.Design.String())
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		expRejected.Add(1)
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
		"app", spec.App, "design", spec.Design.String(), "key", key)
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

// handleAdopt replicates a completed result into this backend: the fleet
// proxy pushes a (request, result_hash, summary) triple it already holds
// — from a peer backend or its shared result store — and the server
// registers a terminal job under the request's canonical key. Later
// polls and dedup'd submissions for that key are answered here without a
// simulation; the engine-level memo cache is untouched, so a mismatched
// recomputation elsewhere is still caught by the proxy's integrity
// cross-check. The {id} path element is the fleet job being adopted,
// used for log attribution only; the backend assigns its own run ID.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	fleetJob := r.PathValue("id")
	var req AdoptRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid adopt body: %v", err)
		return
	}
	if req.ResultHash == "" || req.Result == nil {
		httpError(w, http.StatusBadRequest, "adopt requires result_hash and result")
		return
	}
	hash, err := strconv.ParseUint(req.ResultHash, 16, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid result_hash %q: %v", req.ResultHash, err)
		return
	}
	spec, err := s.buildSpec(&req.Request)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := spec.Key()
	rid := fmt.Sprintf("req-%06d", s.nextReq.Add(1))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		s.log.Info("adopt rejected", "request_id", rid, "reason", "draining", "fleet_job", fleetJob)
		return
	}
	if existing := s.byKey[key]; existing != nil {
		// The key already lives here (possibly still computing): adoption
		// is a no-op join, never an overwrite — a local result outranks a
		// replica.
		st := s.statusLocked(existing)
		s.mu.Unlock()
		st.Dedup = true
		writeJSON(w, http.StatusOK, st)
		s.log.Info("adopt joined existing job", "request_id", rid, "job", st.ID,
			"fleet_job", fleetJob, "key", key)
		return
	}
	now := time.Now()
	sum := *req.Result
	j := &job{
		reqID:     rid,
		spec:      spec,
		key:       key,
		done:      make(chan struct{}),
		state:     StateDone,
		submitted: now,
		finished:  now,
		hash:      hash,
		adopted:   true,
		summary:   &sum,
		trace:     obs.NewReqTrace(rid),
	}
	close(j.done) // terminal from birth: ?wait polls return immediately
	s.nextID++
	j.id = fmt.Sprintf("run-%06d", s.nextID)
	s.jobs[j.id] = j
	s.byKey[key] = j
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.adopted.Add(1)
	expAdopted.Add(1)
	writeJSON(w, http.StatusCreated, st)
	s.log.Info("adopted result", "request_id", rid, "job", j.id, "fleet_job", fleetJob,
		"key", key, "hash", req.ResultHash)
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
	histRender.ObserveSince(t0)
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

// retryAfterSecs computes the Retry-After hint for a rejected submission
// from the queued backlog and the pool's observed service rate: the time
// for the current backlog to clear through the workers, using the mean
// run time from the serve_run_seconds histogram. Before the first run
// completes (no rate observation yet) it falls back to 1s; the result is
// clamped to [1, 60] so a pathological backlog never tells clients to go
// away for hours.
// meanRunSeconds is the observed mean job execution time in seconds
// (zero until a run completes) — the fleet's service-rate routing factor.
func meanRunSeconds() float64 {
	h := histRun.Snapshot()
	return h.Mean() * 1e-6 // samples are microseconds
}

func (s *Server) retryAfterSecs() int {
	return retryAfterFrom(meanRunSeconds(), len(s.queue)+1, s.runner.Workers())
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
		MeanRunSeconds: meanRunSeconds(),
		Completed:      s.completed.Load(),
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
		Submitted:  s.submitted.Load(),
		Deduped:    s.deduped.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Adopted:    s.adopted.Load(),
		Runs:       s.runner.RunsExecuted(),
	}
	if snap := histRequest.Snapshot(); snap.Count > 0 {
		h.Latency = &LatencySummary{
			Count: snap.Count,
			P50:   histRequest.Quantile(0.50),
			P95:   histRequest.Quantile(0.95),
			P99:   histRequest.Quantile(0.99),
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
		App:             j.spec.App,
		Design:          j.spec.Design.String(),
		Error:           j.errMsg,
		Hung:            j.hung,
		CheckViolations: j.violations,
		SubmittedAt:     rfc3339(j.submitted),
		StartedAt:       rfc3339(j.started),
		FinishedAt:      rfc3339(j.finished),
	}
	if j.adopted {
		st.Adopted = true
		st.ResultHash = fmt.Sprintf("%016x", j.hash)
		sum := *j.summary
		st.Result = &sum
		return st
	}
	if j.state == StateDone {
		st.ResultHash = fmt.Sprintf("%016x", j.hash)
		res := j.res
		st.Result = &RunSummary{
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
