package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"abndp/internal/obs"
	"abndp/internal/serve"
)

// Breaker states. The circuit breaker tracks consecutive failures
// (readiness probes and forwarded requests both count): FailThreshold
// consecutive failures open the breaker, after HalfOpenAfter the prober
// makes one half-open trial, and a successful trial closes it again — a
// restarted backend is re-admitted without manual intervention.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Backend is one abndpserve process the coordinator routes to. Identity
// (URL) is fixed at construction; everything observed — readiness, queue
// geometry, breaker state — is refreshed by probes and request outcomes.
type Backend struct {
	// URL is the backend's base URL, its stable identity on the ring.
	URL string

	failThreshold int
	halfOpenAfter time.Duration

	mu       sync.Mutex
	id       string // display ID: -id from /readyz when set, else host:port
	state    string // breaker state
	fails    int    // consecutive failures
	openedAt time.Time
	ready    bool // last probe: pool up, not draining
	draining bool // last probe: 503 draining (alive, but finishing out)
	lastErr  string

	// Queue geometry from the last successful /readyz probe, reported in
	// the proxy's /healthz (not used for routing).
	queueDepth, queueCap, workers int
	meanRunSeconds                float64
	completed                     int64
}

func newBackend(rawURL string, failThreshold int, halfOpenAfter time.Duration) (*Backend, error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: backend URL %q must be absolute (http://host:port)", rawURL)
	}
	return &Backend{
		URL:           rawURL,
		failThreshold: failThreshold,
		halfOpenAfter: halfOpenAfter,
		id:            u.Host,
		state:         BreakerClosed,
	}, nil
}

// ID returns the display identity: the backend's own -id once a probe has
// reported it, the URL host:port before that.
func (b *Backend) ID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.id
}

// hist returns the backend's labeled request-latency histogram on
// /metrics. Looked up per observation so the label follows the
// discovered ID (registration is permanent per label value).
func (b *Backend) hist() *obs.SyncHist {
	return obs.PublishedHistLabel("fleet_backend_request_seconds",
		"Latency of requests the proxy forwarded to this backend.", 1e-6,
		"backend", b.ID())
}

// Admitted reports whether new work may be routed to the backend: breaker
// closed (or due for its half-open trial), probed ready, and not
// draining.
func (b *Backend) Admitted(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= b.halfOpenAfter {
		// Due for recovery: the next probe (or routed request) is the
		// half-open trial. Routing while half-open is allowed — one failure
		// re-opens the breaker immediately.
		b.state = BreakerHalfOpen
	}
	return b.state != BreakerOpen && b.ready && !b.draining
}

// Fail records one failed probe or request, opening the breaker at the
// threshold (or instantly re-opening a half-open trial).
func (b *Backend) Fail(reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.lastErr = reason
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.failThreshold) {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		fleetBreakerOpens.Add(1)
	}
}

// OK records one successful probe or request, closing the breaker.
func (b *Backend) OK() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.lastErr = ""
	b.state = BreakerClosed
}

// Probe performs one readiness probe against /readyz and feeds the result
// into the breaker and the /healthz queue fields. A 503 "draining" answer
// is a live process refusing new work: it clears the failure count (the
// process answers) but marks the backend unroutable.
func (b *Backend) Probe(ctx context.Context, hc *http.Client) error {
	fleetProbes.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		fleetProbeFailures.Add(1)
		b.Fail(err.Error())
		b.mu.Lock()
		b.ready = false
		b.mu.Unlock()
		return err
	}
	defer resp.Body.Close()
	var rd serve.Ready
	if derr := json.NewDecoder(resp.Body).Decode(&rd); derr != nil ||
		(resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable) {
		err := fmt.Errorf("readyz: HTTP %d (decode err %v)", resp.StatusCode, derr)
		fleetProbeFailures.Add(1)
		b.Fail(err.Error())
		b.mu.Lock()
		b.ready = false
		b.mu.Unlock()
		return err
	}

	b.OK() // the process answered conclusively — liveness is not in doubt
	b.mu.Lock()
	b.ready = rd.Status == "ready"
	b.draining = rd.Status == "draining"
	if rd.BackendID != "" {
		b.id = rd.BackendID
	}
	b.queueDepth, b.queueCap, b.workers = rd.QueueDepth, rd.QueueCap, rd.Workers
	b.meanRunSeconds = rd.MeanRunSeconds
	b.completed = rd.Completed
	b.mu.Unlock()
	return nil
}

// BackendHealth is one backend's row in the proxy's /healthz body.
type BackendHealth struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"` // breaker state
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining,omitempty"`

	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Workers        int     `json:"workers"`
	MeanRunSeconds float64 `json:"mean_run_seconds,omitempty"`
	Completed      int64   `json:"jobs_completed"`

	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// Health snapshots the backend for the proxy's /healthz.
func (b *Backend) Health() BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendHealth{
		ID:                  b.id,
		URL:                 b.URL,
		State:               b.state,
		Ready:               b.ready,
		Draining:            b.draining,
		QueueDepth:          b.queueDepth,
		QueueCap:            b.queueCap,
		Workers:             b.workers,
		MeanRunSeconds:      b.meanRunSeconds,
		Completed:           b.completed,
		ConsecutiveFailures: b.fails,
		LastError:           b.lastErr,
	}
}
