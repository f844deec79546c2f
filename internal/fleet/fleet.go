// Package fleet is the serving-tier coordinator behind cmd/abndpproxy: a
// reverse proxy that fronts N abndpserve backends and makes the fleet
// survive the failures internal/fault already simulates inside the
// engine — crashed, hung, and draining backends.
//
// The design dogfoods the paper's thesis. ABNDP routes a task to the unit
// that holds its data unless that unit's load makes another one cheaper;
// the fleet routes a submission to the backend whose job table and
// checkpoint store are warm for its canonical key unless that backend is
// unhealthy or has no free worker:
//
//   - consistent-hash routing on serve.RouteKey — identical submissions
//     from different clients land on one backend and join one job, so
//     dedup works fleet-wide, not just per-process;
//   - load: the proxy counts its own jobs in flight on each backend, and
//     a new job skips, in ring order, a backend whose count has reached
//     the workers its /readyz reports; when every admitted backend is
//     full the job goes to the first admitted one, as if none were;
//   - admission in the TiProxy style: per-backend readiness probes
//     (/readyz), a consecutive-failure circuit breaker with half-open
//     recovery, and drain detection — a sick backend is routed around
//     before it times out;
//   - failure handling: submissions that fail mid-flight (connection
//     refused, 5xx, per-attempt deadline) or are rejected (429/503) move
//     to the next ring successor, and whole rounds retry with capped
//     exponential backoff plus jitter (client.Backoff), honoring
//     Retry-After; jobs whose owner dies mid-run re-dispatch transparently
//     during the client's poll, at most until a second owner has died
//     with the job (then it is poisoned: failed, never dispatched again);
//   - finished jobs: the proxy's job table keeps each job's terminal
//     status and answers every later poll and duplicate submission from
//     it, with no backend call, so a finished job outlives its owner;
//   - integrity: when an owner reports done after another poll has failed
//     its job over, the proxy cross-checks that result_hash against the
//     one the job finished with — the engine's FNV-1a determinism hash
//     doubles as a fleet-level integrity check.
//
// See docs/SERVING.md ("Serving fleets") for the topology, admission
// checks, and failure matrix.
package fleet

import (
	"container/list"
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"abndp/client"
	"abndp/internal/obs"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Backends are the abndpserve base URLs the fleet routes across.
	Backends []string

	// ProbeInterval is the readiness-probe period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker (default 3).
	FailThreshold int
	// HalfOpenAfter is how long an open breaker waits before its next
	// half-open trial (default 3s).
	HalfOpenAfter time.Duration
	// Replicas is the virtual-point count per backend on the hash ring
	// (default 64).
	Replicas int

	// MaxAttempts is the number of full-fleet dispatch rounds before a
	// submission is rejected back to the client (default 3). Within one
	// round every admissible backend is tried once.
	MaxAttempts int
	// AttemptTimeout bounds each forwarded submit/probe attempt (default
	// 15s). Long-polls are bounded by the client's wait, not this.
	AttemptTimeout time.Duration
	// Retry is the backoff between dispatch rounds; the zero value uses
	// client.Backoff's defaults. Server Retry-After hints floor the delay.
	Retry client.Backoff

	// JobCap bounds the terminal fleet jobs the proxy retains, each
	// answering its polls and duplicate submissions without a backend
	// call; beyond it the least recently touched terminal job is evicted,
	// and a later submission of its key is dispatched again. In-flight
	// jobs are never evicted.
	// 0 means the default 1024; negative disables eviction.
	JobCap int

	// Logger receives routing and failover logs; nil discards them.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.HalfOpenAfter <= 0 {
		c.HalfOpenAfter = 3 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 15 * time.Second
	}
	if c.JobCap == 0 {
		c.JobCap = 1024
	}
}

// Coordinator fronts the backend fleet. Create with New, mount Handler,
// and Close on shutdown.
type Coordinator struct {
	cfg      Config
	backends []*Backend
	ring     *ring
	hc       *http.Client // forwarded requests (no overall timeout; per-call contexts bound them)
	probeHC  *http.Client // probes, bounded by ProbeTimeout
	log      *slog.Logger
	mux      *http.ServeMux

	// The proxy's fleet_* counters, looked up once in New in the registry
	// its /metrics serves; /healthz reads them too. Each Backend keeps its
	// probe and breaker counters and its latency histogram there.
	submitted, deduped, rejected, dispatches, retryRounds, failovers,
	poisoned, mismatches, evictions, reroutes *obs.Counter

	mu       sync.Mutex
	jobs     map[string]*pjob        // by fleet job ID
	byKey    map[string]*pjob        // fleet-wide dedup: route key -> job
	termLRU  *list.List              // terminal jobs, front = most recently touched
	termElem map[*pjob]*list.Element // terminal job -> its LRU element
	nextID   int64

	probeStop context.CancelFunc
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Coordinator, performs one synchronous probe round so
// routing starts with real health, and starts the background prober.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:         cfg,
		hc:          &http.Client{},
		probeHC:     &http.Client{Timeout: cfg.ProbeTimeout},
		log:         logger,
		submitted:   reg.Counter("fleet_jobs_submitted"),
		deduped:     reg.Counter("fleet_jobs_deduped"),
		rejected:    reg.Counter("fleet_jobs_rejected"),
		dispatches:  reg.Counter("fleet_dispatches_total"),
		retryRounds: reg.Counter("fleet_dispatch_retry_rounds_total"),
		failovers:   reg.Counter("fleet_failovers_total"),
		poisoned:    reg.Counter("fleet_jobs_poisoned_total"),
		mismatches:  reg.Counter("fleet_hash_mismatches_total"),
		evictions:   reg.Counter("fleet_job_evictions_total"),
		reroutes:    reg.Counter("fleet_load_reroutes_total"),
		jobs:        make(map[string]*pjob),
		byKey:       make(map[string]*pjob),
		termLRU:     list.New(),
		termElem:    make(map[*pjob]*list.Element),
	}
	urls := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		b, err := newBackend(raw, cfg.FailThreshold, cfg.HalfOpenAfter, reg)
		if err != nil {
			return nil, err
		}
		c.backends = append(c.backends, b)
		urls = append(urls, b.URL)
	}
	c.ring = newRing(urls, cfg.Replicas)

	ctx, stop := context.WithCancel(context.Background())
	c.probeStop = stop
	c.probeAll() // synchronous first round: route on real health from request one
	c.probeWG.Add(1)
	go c.probeLoop(ctx)

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/runs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/runs/{id}", c.handleRun)
	c.mux.HandleFunc("GET /v1/experiments/{name}", c.handleExperiment)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.Handle("GET /metrics", reg.Handler())
	return c, nil
}

// Handler returns the proxy's HTTP handler (the same API surface as one
// abndpserve backend, plus the fleet /healthz and /metrics).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Backends exposes the fleet's backend states (tests, health).
func (c *Coordinator) Backends() []*Backend { return c.backends }

// Close tears the coordinator down: it stops the background prober and
// closes the HTTP clients' idle connections so their transport goroutines
// exit. A closed coordinator leaks no goroutines (pinned by
// TestCloseStopsGoroutines).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.probeStop()
		c.probeWG.Wait()
		c.hc.CloseIdleConnections()
		c.probeHC.CloseIdleConnections()
	})
}

// probeLoop refreshes every backend on ProbeInterval until Close.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every backend concurrently and logs state transitions.
func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, b := range c.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			before := b.Health()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			err := b.Probe(ctx, c.probeHC)
			after := b.Health()
			if before.State != after.State || before.Ready != after.Ready || before.Draining != after.Draining {
				c.log.Info("backend state change", "backend", after.ID, "url", b.URL,
					"state", after.State, "ready", after.Ready, "draining", after.Draining,
					"err", errStr(err))
			}
		}(b)
	}
	wg.Wait()
}

// pick walks key's ring order over the admitted backends (breaker,
// readiness, drain). first is the first of them, the ring owner for cache
// affinity unless it is unhealthy, and nil when no backend is admissible.
// free is the first of them with a free worker (Backend.full), nil when
// every admitted backend is full. exclude removes backends from
// consideration (e.g. the owner that just died during failover).
func (c *Coordinator) pick(key string, exclude func(*Backend) bool) (first, free *Backend) {
	now := time.Now()
	for _, idx := range c.ring.order(key) {
		b := c.backends[idx]
		if (exclude != nil && exclude(b)) || !b.Admitted(now) {
			continue
		}
		if first == nil {
			first = b
		}
		if !b.full() {
			return first, b
		}
	}
	return first, nil
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
