// Package fleet is the serving-tier coordinator behind cmd/abndpproxy: a
// reverse proxy that fronts N abndpserve backends and makes the fleet
// survive the failures internal/fault already simulates inside the
// engine — crashed, hung, and draining backends.
//
// The design dogfoods the paper's thesis. ABNDP routes a task to the unit
// whose caches are warm for its data; the fleet routes a submission to
// the backend whose memo and checkpoint caches are warm for its canonical
// key unless that backend's health says otherwise:
//
//   - consistent-hash routing on serve.RouteKey — identical submissions
//     from different clients land on one backend and join one job, so
//     dedup works fleet-wide, not just per-process;
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
//   - integrity: when a job is re-dispatched after a backend death, the
//     proxy cross-checks the new result_hash against any hash the dead
//     owner already reported — the engine's FNV-1a determinism hash
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

	// StoreSize bounds the shared result store — completed results kept
	// proxy-side by route key so a warm result anywhere in the fleet
	// serves failovers and re-submissions with zero recomputation.
	// 0 means the default 1024; negative disables the store.
	StoreSize int

	// JobCap bounds the terminal fleet jobs the proxy retains for
	// polling; beyond it the least recently touched terminal job is
	// evicted (its result stays reachable through the result store by
	// route key). In-flight jobs are never evicted.
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
	if c.StoreSize == 0 {
		c.StoreSize = 1024
	}
	if c.JobCap == 0 {
		c.JobCap = 1024
	}
}

// Fleet-wide counters on /debug/vars and the proxy's /metrics.
var (
	fleetSubmitted      = obs.Published("fleet_jobs_submitted")
	fleetDeduped        = obs.Published("fleet_jobs_deduped")
	fleetRejected       = obs.Published("fleet_jobs_rejected")
	fleetDispatches     = obs.Published("fleet_dispatches_total")
	fleetRetryRounds    = obs.Published("fleet_dispatch_retry_rounds_total")
	fleetFailovers      = obs.Published("fleet_failovers_total")
	fleetPoisoned       = obs.Published("fleet_jobs_poisoned_total")
	fleetHashMismatches = obs.Published("fleet_hash_mismatches_total")
	fleetBreakerOpens   = obs.Published("fleet_breaker_opens_total")
	fleetProbes         = obs.Published("fleet_probes_total")
	fleetProbeFailures  = obs.Published("fleet_probe_failures_total")
	fleetStoreHits      = obs.Published("fleet_store_hits_total")
	fleetStoreEvictions = obs.Published("fleet_store_evictions_total")
	fleetAdoptions      = obs.Published("fleet_adoptions_total")
	fleetJobEvictions   = obs.Published("fleet_job_evictions_total")
)

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

	coordCounters // per-coordinator /healthz counters

	store *resultStore // fleet-wide shared result store (nil-safe when disabled)

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
	c := &Coordinator{
		cfg:      cfg,
		hc:       &http.Client{},
		probeHC:  &http.Client{Timeout: cfg.ProbeTimeout},
		log:      logger,
		jobs:     make(map[string]*pjob),
		byKey:    make(map[string]*pjob),
		termLRU:  list.New(),
		termElem: make(map[*pjob]*list.Element),
		store:    newResultStore(cfg.StoreSize),
	}
	urls := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		b, err := newBackend(raw, cfg.FailThreshold, cfg.HalfOpenAfter)
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
	c.mux.Handle("GET /metrics", obs.PromHandler())
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

// pick returns the first admitted backend (breaker, readiness, drain) in
// key's ring order: the ring owner for cache affinity unless it is
// unhealthy. exclude removes backends from consideration (e.g. the owner
// that just died during failover). Returns nil when no backend is
// admissible.
func (c *Coordinator) pick(key string, exclude func(*Backend) bool) *Backend {
	now := time.Now()
	for _, idx := range c.ring.order(key) {
		b := c.backends[idx]
		if exclude != nil && exclude(b) {
			continue
		}
		if b.Admitted(now) {
			return b
		}
	}
	return nil
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
