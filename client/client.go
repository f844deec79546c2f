// Package client is a small Go client for the abndpserve HTTP API
// (internal/serve, docs/SERVING.md): submit simulation jobs, long-poll for
// results, fetch rendered experiments, and read service health. The wire
// types are shared with the server, so a Submit body and a RunStatus
// response are exactly what the service validates and emits.
//
// Backpressure is surfaced, not hidden: a full queue yields ErrQueueFull
// (with the server's Retry-After hint) and a draining server yields
// ErrDraining, so callers decide their own retry policy. SubmitWait is the
// batteries-included path that retries queue-full and polls to completion.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"abndp/internal/serve"
)

// Re-exported wire types; the server package defines the schema.
type (
	RunRequest = serve.RunRequest
	RunStatus  = serve.RunStatus
	Health     = serve.Health
)

// ErrQueueFull reports a 429: the service's bounded job queue is full.
// Errors.Is-match it and retry after the APIError's RetryAfter.
var ErrQueueFull = errors.New("job queue full")

// ErrDraining reports a 503: the service is shutting down and admits no
// new jobs. Resubmit to another instance.
var ErrDraining = errors.New("server draining")

// APIError is any non-2xx service response.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backoff hint on 429 (zero otherwise).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("abndpserve: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Unwrap maps the well-known statuses onto the sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.StatusCode {
	case http.StatusTooManyRequests:
		return ErrQueueFull
	case http.StatusServiceUnavailable:
		return ErrDraining
	}
	return nil
}

// Backoff is the retry policy SubmitWait applies to transient rejections:
// capped, jittered exponential backoff that honors the server's
// Retry-After hint as a floor and respects context cancellation while
// sleeping. The zero value means the defaults noted per field — a Client
// works without configuring anything here.
type Backoff struct {
	// Base is the pre-jitter delay of the first retry (default 200ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s). A larger server
	// Retry-After hint still wins — the server knows its backlog; the cap
	// tames the client's own growth, not the server's explicit ask.
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1]
	// (default 0.5): the delay is drawn uniformly from
	// [d·(1-Jitter), d]. Jitter decorrelates the retry storms of clients
	// rejected together. Set -1 for none (tests).
	Jitter float64
	// MaxAttempts bounds the submissions SubmitWait makes; 0 means retry
	// until the context ends. When positive, draining (503) rejections are
	// retried too — against a fleet proxy they mean "no backend admits
	// work right now", which a backend restart cures; when 0, draining
	// still fails fast so a standalone client cannot spin forever against
	// a server that will never come back.
	MaxAttempts int
	// Rand overrides the jitter source with a func returning [0,1)
	// (tests); nil uses math/rand.
	Rand func() float64
}

// Delay returns the backoff before retry attempt (0-based), jittered,
// capped at Max, and floored by the server's Retry-After hint.
func (b Backoff) Delay(attempt int, hint time.Duration) time.Duration {
	base, max, factor, jitter := b.Base, b.Max, b.Factor, b.Jitter
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if factor < 1 {
		factor = 2
	}
	switch {
	case jitter == 0:
		jitter = 0.5
	case jitter < 0:
		jitter = 0
	case jitter > 1:
		jitter = 1
	}
	d := float64(base)
	for i := 0; i < attempt && d < float64(max); i++ {
		d *= factor
	}
	if d > float64(max) {
		d = float64(max)
	}
	r := b.Rand
	if r == nil {
		r = rand.Float64
	}
	d = d*(1-jitter) + r()*d*jitter
	if delay := time.Duration(d); delay >= hint {
		return delay
	}
	return hint
}

// Sleep blocks for Delay(attempt, hint) or until ctx is done, returning
// ctx's error in that case — a canceled caller never waits out a backoff.
// A delay that cannot finish before ctx's deadline fails fast with
// context.DeadlineExceeded instead of sleeping the deadline out: a
// server-side Retry-After of 30s against a caller with 2s of budget left
// would otherwise burn the entire budget doing provably useless waiting.
func (b Backoff) Sleep(ctx context.Context, attempt int, hint time.Duration) error {
	d := b.Delay(attempt, hint)
	if dl, ok := ctx.Deadline(); ok && d > time.Until(dl) {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client talks to one abndpserve instance.
type Client struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the transport; nil means a client with no overall timeout
	// (requests are bounded by their contexts; long-polls outlive any
	// fixed client timeout).
	HTTP *http.Client
	// Retry is SubmitWait's backoff policy; the zero value uses the
	// documented defaults.
	Retry Backoff
}

// New returns a Client for the service at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

// do issues one request and decodes a JSON body into out (unless nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError builds an *APIError from a non-2xx response, preserving the
// service's {"error": ...} message and any Retry-After hint.
func apiError(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
	} else {
		e.Message = http.StatusText(resp.StatusCode)
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Submit enqueues one run. A dedup'd submission returns the existing job's
// status (Dedup set); a full queue returns an error matching ErrQueueFull.
func (c *Client) Submit(ctx context.Context, req RunRequest) (*RunStatus, error) {
	var st RunStatus
	if err := c.do(ctx, http.MethodPost, "/v1/runs", &req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Run fetches one job's status. A positive wait long-polls: the server
// holds the request until the job is terminal or the duration elapses.
func (c *Client) Run(ctx context.Context, id string, wait time.Duration) (*RunStatus, error) {
	path := "/v1/runs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st RunStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait long-polls id until the job reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*RunStatus, error) {
	for {
		st, err := c.Run(ctx, id, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if st.Status == serve.StateDone || st.Status == serve.StateFailed {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// SubmitWait submits req, retrying queue-full (and, with a bounded
// policy, draining) rejections under the Retry policy — jittered
// exponential backoff floored by the server's Retry-After hint,
// interruptible by ctx — then waits for the job to finish, unless the
// submission already returned it finished. The job may still have failed
// — check Status and Error on the returned RunStatus.
func (c *Client) SubmitWait(ctx context.Context, req RunRequest) (*RunStatus, error) {
	var st *RunStatus
	for attempt := 0; ; attempt++ {
		var err error
		st, err = c.Submit(ctx, req)
		if err == nil {
			break
		}
		var ae *APIError
		retryable := errors.As(err, &ae) &&
			(errors.Is(err, ErrQueueFull) ||
				(errors.Is(err, ErrDraining) && c.Retry.MaxAttempts > 0))
		if !retryable {
			return nil, err
		}
		if c.Retry.MaxAttempts > 0 && attempt+1 >= c.Retry.MaxAttempts {
			return nil, err
		}
		if serr := c.Retry.Sleep(ctx, attempt, ae.RetryAfter); serr != nil {
			return nil, serr
		}
	}
	if st.Status == serve.StateDone || st.Status == serve.StateFailed {
		return st, nil
	}
	return c.Wait(ctx, st.ID)
}

// Experiment renders one paper table/figure (e.g. "tab1", "fig6") on the
// service and returns the text output.
func (c *Client) Experiment(ctx context.Context, name string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/experiments/"+name, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", apiError(resp)
	}
	out, err := io.ReadAll(resp.Body)
	return string(out), err
}

// Health reads /healthz. A draining server answers with its counters and
// an error matching ErrDraining.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
