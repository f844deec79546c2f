package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"abndp/internal/serve"
)

// maxOwnerDeaths is the failover budget: once this many owners have died
// holding a job, the job is poisoned — ended failed and never dispatched
// again — so a request that crashes its backend cannot walk the ring
// taking every backend down.
const maxOwnerDeaths = 2

// pjob is one fleet-tracked job: the canonical submission body (kept for
// re-dispatch), the current owning backend, whether the job counts against
// that backend's in-flight jobs, whether a dispatch of it is in flight,
// and, once it has one, its terminal status.
type pjob struct {
	id   string // fleet job ID ("job-000001")
	key  string // serve.RouteKey — fleet dedup identity
	body []byte // canonical re-marshalled RunRequest, replayed on failover

	mu         sync.Mutex
	owner      *Backend
	ownerRunID string
	counted    bool     // j is one of owner.inflight; release clears it
	dead       []string // IDs of the owners that died holding the job; len is its failover count
	// dispatching is non-nil while one caller dispatches the job, which
	// then has no owner: the submission that created it, a poll that
	// found it without one, or the failover that dropped its dead owner.
	// setOwner closes and clears it in the step that sets the owner, and
	// endDispatch when the dispatch sets none. Another poll or duplicate
	// submission waits on it and then reads the owner that dispatch set,
	// so the job is never dispatched twice at once.
	dispatching chan struct{}
	// unplaced is set when the submission that created the job failed to
	// place it: the job has left the proxy's tables, and every caller that
	// joined it gets this error instead of dispatching a job that no poll
	// could find again.
	unplaced error
	// final is the job's terminal status (done, failed or poisoned), set
	// once by finish or by the death that poisons the job. It answers
	// every later poll and duplicate submission, and a later done status
	// must carry its result_hash.
	final *serve.RunStatus
}

// newPJob returns a job that its creator is dispatching.
func newPJob(id, key string, body []byte) *pjob {
	return &pjob{id: id, key: key, body: body, dispatching: make(chan struct{})}
}

func (j *pjob) ownerInfo() (*Backend, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.owner, j.ownerRunID
}

// state returns a copy of j's terminal status, or, while it has none, its
// current owner and the owner's run ID.
func (j *pjob) state() (*serve.RunStatus, *Backend, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		st := copyStatus(j.final)
		return &st, nil, ""
	}
	return nil, j.owner, j.ownerRunID
}

// claim marks j as dispatching by the caller when it has no owner, no
// terminal status and no dispatch in flight, and reports whether it did;
// the caller then dispatches j, and calls endDispatch if that fails.
// While another dispatch is in flight it returns that dispatch's channel,
// closed when it ends. A job its creator failed to place returns that
// error.
func (j *pjob) claim() (claimed bool, busy <-chan struct{}, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.unplaced != nil:
		return false, nil, j.unplaced
	case j.final != nil || j.owner != nil:
		return false, nil, nil
	case j.dispatching != nil:
		return false, j.dispatching, nil
	}
	j.dispatching = make(chan struct{})
	return true, nil, nil
}

// abandon ends the creating submission's dispatch, which failed with err,
// after the job left the proxy's tables. The callers that joined the job
// wake to the same error: a 503 with a Retry-After (a resubmission starts
// a fresh job) or the backend's own client error. A creator that hung up
// leaves them a 503 too.
func (j *pjob) abandon(err error) {
	var pe *proxyError
	if !errors.As(err, &pe) {
		pe = &proxyError{code: http.StatusServiceUnavailable, retryAfter: time.Second,
			msg: fmt.Sprintf("job %s was not placed: %v", j.id, err)}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.unplaced = pe
	j.endDispatchLocked()
}

// endDispatch ends a dispatch its caller claimed that set no owner,
// waking the polls that wait on it: one of them claims the next dispatch.
// A dispatch that sets an owner ends in setOwner instead; until then no
// one else can start a dispatch of j, so the channel is its caller's.
func (j *pjob) endDispatch() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.endDispatchLocked()
}

func (j *pjob) endDispatchLocked() {
	if j.dispatching != nil {
		close(j.dispatching)
		j.dispatching = nil
	}
}

// setOwner records b as j's owner under run runID and ends the dispatch
// in flight, in one step: a poll that then finds b dead may fail j over
// and start the next dispatch. Unless the dispatch came back terminal, or
// j already is, j counts against b's in-flight jobs until finish or
// dropOwner releases it. Only one dispatch of j runs at a time, and it
// starts with no owner, so j counts on one backend at most.
func (j *pjob) setOwner(b *Backend, runID string, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.endDispatchLocked()
	j.owner, j.ownerRunID = b, runID
	if !terminal && j.final == nil {
		b.inflight.Add(1)
		j.counted = true
	}
}

// release takes j's count back from its owner, once. j.mu must be held.
func (j *pjob) release() {
	if j.counted {
		j.owner.inflight.Add(-1)
		j.counted = false
	}
}

// dropOwner clears the owner if it is still dead and the job is not yet
// terminal — a concurrent poll may already have re-dispatched or finished
// it — releases the job's count on it and records the death. Reports
// whether this call did the clearing (and so owns the failover
// accounting). Unless the death poisons the job, the caller has then
// claimed its re-dispatch (see claim). The death that spends the failover
// budget poisons the job in the same step, so no other poll can dispatch
// it again; that status is returned.
func (j *pjob) dropOwner(dead *Backend) (dropped bool, poisoned *serve.RunStatus) {
	id := dead.ID()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.owner != dead || j.final != nil {
		return false, nil
	}
	j.release()
	j.owner, j.ownerRunID = nil, ""
	j.dead = append(j.dead, id)
	if len(j.dead) < maxOwnerDeaths {
		j.dispatching = make(chan struct{})
		return true, nil
	}
	j.final = &serve.RunStatus{Status: serve.StateFailed, Error: fmt.Sprintf(
		"job poisoned: its owners %s died holding it; it will not be dispatched again",
		strings.Join(j.dead, " and "))}
	st := copyStatus(j.final)
	return true, &st
}

func (j *pjob) snapshotFailovers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.dead)
}

// copyStatus deep-copies a RunStatus, so a job's terminal status never
// aliases a response the proxy rewrites (ID, Backend, Failovers, Dedup).
func copyStatus(st *serve.RunStatus) serve.RunStatus {
	out := *st
	if st.Result != nil {
		res := *st.Result
		out.Result = &res
	}
	return out
}

// errLostRun marks a live backend that no longer knows the run (it
// restarted and lost its in-memory jobs): failover without feeding the
// circuit breaker.
var errLostRun = errors.New("backend lost the run")

// proxyError is a terminal proxy-level failure surfaced to the client.
type proxyError struct {
	code       int
	msg        string
	rawBody    []byte // backend body passed through verbatim (client errors)
	retryAfter time.Duration
}

func (e *proxyError) Error() string { return fmt.Sprintf("fleet: %s (HTTP %d)", e.msg, e.code) }

// rejection is a live backend's explicit 429/503 — not a health failure.
type rejection struct {
	code       int
	retryAfter time.Duration
}

// ---------------------------------------------------------------------------
// Forwarding primitives.

// forwardSubmit POSTs the job to one backend, bounded by AttemptTimeout.
func (c *Coordinator) forwardSubmit(ctx context.Context, b *Backend, j *pjob) (*serve.RunStatus, *rejection, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/v1/runs", bytes.NewReader(j.body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b.hist().ObserveSince(t0)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var st serve.RunStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, nil, fmt.Errorf("decode submit response: %w", err)
		}
		return &st, nil, nil
	case http.StatusBadRequest:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, nil, &proxyError{code: http.StatusBadRequest, msg: "backend rejected request", rawBody: raw}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, &rejection{code: resp.StatusCode, retryAfter: retryAfterOf(resp)}, nil
	default:
		return nil, nil, fmt.Errorf("submit: HTTP %d from %s", resp.StatusCode, b.ID())
	}
}

// forwardGet polls one backend for a run, long-polling up to wait.
func (c *Coordinator) forwardGet(ctx context.Context, b *Backend, runID string, wait time.Duration) (*serve.RunStatus, error) {
	path := b.URL + "/v1/runs/" + runID
	grace := c.cfg.AttemptTimeout
	if wait > 0 {
		path += "?wait=" + wait.String()
		grace += wait
	}
	ctx, cancel := context.WithTimeout(ctx, grace)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b.hist().ObserveSince(t0)
	switch resp.StatusCode {
	case http.StatusOK:
		var st serve.RunStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, fmt.Errorf("decode run status: %w", err)
		}
		return &st, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s has no run %s", errLostRun, b.ID(), runID)
	default:
		return nil, fmt.Errorf("poll: HTTP %d from %s", resp.StatusCode, b.ID())
	}
}

func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Dispatch: route a submission to a healthy backend, retrying around
// failures and explicit rejections.

// dispatch places j on a backend: ring-order candidates per round, each
// attempt on the first admitted backend with a free worker, or on the
// first admitted one when all are full (pick). Failures feed the breaker,
// explicit 429/503 rejections move on to the next candidate and set the
// backoff floor between rounds. A caller that hangs up ends it with
// ctx.Err() and feeds no breaker. exclude removes a just-died owner from
// the first re-dispatch so failover cannot bounce straight back.
func (c *Coordinator) dispatch(ctx context.Context, j *pjob, exclude *Backend) (*Backend, *serve.RunStatus, error) {
	var hint time.Duration
	for round := 0; round < c.cfg.MaxAttempts; round++ {
		if round > 0 {
			c.retryRounds.Add(1)
			if err := c.cfg.Retry.Sleep(ctx, round-1, hint); err != nil {
				return nil, nil, &proxyError{code: http.StatusServiceUnavailable, msg: err.Error()}
			}
			hint = 0
		}
		tried := map[*Backend]bool{}
		for {
			first, b := c.pick(j.key, func(b *Backend) bool { return tried[b] || b == exclude })
			if b == nil {
				b = first
			}
			if b == nil {
				break
			}
			tried[b] = true
			st, rej, err := c.forwardSubmit(ctx, b, j)
			if err != nil {
				if ctx.Err() != nil {
					return nil, nil, ctx.Err() // the caller hung up; b did nothing wrong
				}
				var pe *proxyError
				if errors.As(err, &pe) {
					return nil, nil, err // client error: pass through, don't retry
				}
				b.Fail(err.Error())
				c.log.Warn("submit attempt failed", "job", j.id, "backend", b.ID(), "err", err.Error())
				continue
			}
			if rej != nil {
				if rej.retryAfter > hint {
					hint = rej.retryAfter
				}
				c.log.Info("backend rejected submission", "job", j.id, "backend", b.ID(),
					"code", rej.code, "retry_after", rej.retryAfter)
				continue
			}
			b.OK()
			c.dispatches.Add(1)
			if b != first {
				c.reroutes.Add(1) // first was full
			}
			j.setOwner(b, st.ID, isTerminal(st.Status))
			c.log.Info("dispatched", "job", j.id, "key", j.key, "backend", b.ID(),
				"backend_run", st.ID, "dedup", st.Dedup, "rerouted", b != first)
			return b, st, nil
		}
		// After the final round there is no one left to wait for.
		if round == c.cfg.MaxAttempts-1 {
			break
		}
	}
	c.rejected.Add(1)
	if hint <= 0 {
		hint = time.Second
	}
	return nil, nil, &proxyError{
		code:       http.StatusServiceUnavailable,
		msg:        fmt.Sprintf("no backend admitted job %s after %d rounds", j.id, c.cfg.MaxAttempts),
		retryAfter: hint,
	}
}

// ---------------------------------------------------------------------------
// Await: poll the owner to (or past) a wait budget, failing over when the
// owner dies.

func isTerminal(status string) bool {
	return status == serve.StateDone || status == serve.StateFailed
}

// await returns j's status, long-polling up to wait. A job with a
// terminal status is answered from it, with no backend call. Otherwise the
// loop polls the owner, re-dispatching around dead owners, and every
// terminal status a backend reports goes through finish. A job without an
// owner is dispatched by one caller at a time: the others wait for that
// dispatch and poll the owner it set. A caller that hangs up gets
// ctx.Err(): its owner is not failed over.
func (c *Coordinator) await(ctx context.Context, j *pjob, wait time.Duration) (*serve.RunStatus, error) {
	deadline := time.Now().Add(wait)
	for {
		final, owner, runID := j.state()
		if final != nil {
			c.markTerminal(j) // a touch: JobCap evicts the least recently touched job
			return final, nil
		}
		if owner == nil {
			claimed, busy, err := j.claim()
			if err != nil {
				return nil, err
			}
			if busy != nil {
				select {
				case <-busy:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if !claimed {
				continue
			}
			b, st, err := c.dispatch(ctx, j, nil)
			if err != nil {
				j.endDispatch()
				return nil, err
			}
			if isTerminal(st.Status) {
				return c.finish(j, b, st)
			}
			continue
		}
		remaining := time.Until(deadline)
		if remaining < 0 {
			remaining = 0
		}
		st, err := c.forwardGet(ctx, owner, runID, remaining)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fst, ferr := c.failover(ctx, j, owner, err)
			if fst != nil || ferr != nil {
				return fst, ferr
			}
			continue
		}
		if isTerminal(st.Status) {
			return c.finish(j, owner, st)
		}
		if time.Until(deadline) <= 10*time.Millisecond {
			return st, nil // wait budget spent; report the live state
		}
	}
}

// failover handles a dead or amnesiac owner: feed the breaker (unless the
// backend merely lost the run), clear ownership, then poison the job if
// its failover budget is spent, or else re-dispatch it elsewhere. A
// non-nil status is terminal and the caller is done.
func (c *Coordinator) failover(ctx context.Context, j *pjob, owner *Backend, cause error) (*serve.RunStatus, error) {
	if !errors.Is(cause, errLostRun) {
		owner.Fail(cause.Error())
	}
	dropped, poisoned := j.dropOwner(owner)
	if !dropped {
		return nil, nil // a concurrent poll already failed over or finished the job; reuse its work
	}
	c.failovers.Add(1)
	c.log.Warn("failover", "job", j.id, "key", j.key, "dead", owner.ID(), "cause", cause.Error())
	if poisoned != nil {
		c.poisoned.Add(1)
		c.log.Error("job poisoned", "job", j.id, "key", j.key, "err", poisoned.Error)
		c.markTerminal(j)
		return poisoned, nil
	}
	b, st, err := c.dispatch(ctx, j, owner)
	if err != nil {
		j.endDispatch()
		return nil, err
	}
	if isTerminal(st.Status) {
		return c.finish(j, b, st)
	}
	return nil, nil
}

// finish records st, the terminal status backend b reported for j, as j's
// terminal status, releases j's in-flight count, and returns it. The first
// terminal status stands: a later one — an owner that reports late, after
// another poll has failed the job over — gets the recorded status back,
// unless both are done with different result hashes. That is the fleet
// integrity check: the engine's deterministic FNV-1a result hash makes
// equality the correct invariant (same spec, same hash, on any healthy
// backend).
func (c *Coordinator) finish(j *pjob, b *Backend, st *serve.RunStatus) (*serve.RunStatus, error) {
	if st.Backend == "" {
		st.Backend = b.ID()
	}
	j.mu.Lock()
	prev := j.final
	if prev == nil {
		final := copyStatus(st)
		final.Dedup = false // a property of one answer, not of the job
		j.final = &final
		j.release()
	}
	j.mu.Unlock()
	c.markTerminal(j)
	if prev == nil {
		return st, nil
	}
	if prev.Status == serve.StateDone && st.Status == serve.StateDone && st.ResultHash != prev.ResultHash {
		c.mismatches.Add(1)
		c.log.Error("fleet integrity violation", "job", j.id, "key", j.key,
			"backend", b.ID(), "hash", st.ResultHash, "recorded", prev.ResultHash)
		return nil, &proxyError{
			code: http.StatusBadGateway,
			msg: fmt.Sprintf("integrity violation: backend %s reports result_hash %s for job %s, but %s was recorded earlier",
				b.ID(), st.ResultHash, j.id, prev.ResultHash),
		}
	}
	out := copyStatus(prev)
	return &out, nil
}

// markTerminal registers j in the terminal-job LRU (or moves it to the
// front) and evicts beyond JobCap: a long-running proxy must not grow its
// jobs/byKey maps without bound as jobs complete. The proxy forgets an
// evicted job: a later submission of its key is dispatched again, and the
// key's ring owner answers it from its own job table. In-flight jobs are
// never evicted.
func (c *Coordinator) markTerminal(j *pjob) {
	if c.cfg.JobCap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.termElem[j]; ok {
		c.termLRU.MoveToFront(el)
	} else {
		c.termElem[j] = c.termLRU.PushFront(j)
	}
	for c.termLRU.Len() > c.cfg.JobCap {
		el := c.termLRU.Back()
		old := el.Value.(*pjob)
		c.termLRU.Remove(el)
		delete(c.termElem, old)
		delete(c.jobs, old.id)
		if c.byKey[old.key] == old {
			delete(c.byKey, old.key)
		}
		c.evictions.Add(1)
	}
}

// ---------------------------------------------------------------------------
// HTTP handlers.

// rewrite maps a backend status into the fleet namespace.
func (c *Coordinator) rewrite(j *pjob, b *Backend, st *serve.RunStatus) *serve.RunStatus {
	st.ID = j.id
	st.Failovers = j.snapshotFailovers()
	if st.Backend == "" && b != nil {
		st.Backend = b.ID()
	}
	return st
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	key := serve.RouteKey(&req)
	c.submitted.Add(1)

	c.mu.Lock()
	if j := c.byKey[key]; j != nil {
		c.mu.Unlock()
		c.deduped.Add(1)
		st, err := c.await(r.Context(), j, 0)
		if err != nil {
			c.writeError(w, err)
			return
		}
		owner, _ := j.ownerInfo()
		st = c.rewrite(j, owner, st)
		st.Dedup = true
		writeJSON(w, http.StatusOK, st)
		return
	}
	c.nextID++
	j := newPJob(fmt.Sprintf("job-%06d", c.nextID), key, body)
	c.jobs[j.id] = j
	c.byKey[key] = j
	c.mu.Unlock()

	b, st, err := c.dispatch(r.Context(), j, nil)
	if err != nil {
		// Unplaced jobs must not poison the key: the next submission
		// starts fresh.
		c.mu.Lock()
		delete(c.jobs, j.id)
		delete(c.byKey, key)
		c.mu.Unlock()
		j.abandon(err)
		c.writeError(w, err)
		return
	}
	// A synchronously-terminal dispatch (a backend that still holds the
	// key's finished job) becomes the job's terminal status like a polled
	// one.
	if isTerminal(st.Status) {
		if st, err = c.finish(j, b, st); err != nil {
			c.writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, c.rewrite(j, b, st))
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no such run %q", r.PathValue("id"))})
		return
	}
	var wait time.Duration
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid wait duration %q: %v", waitStr, err)})
			return
		}
		wait = d
	}
	st, err := c.await(r.Context(), j, wait)
	if err != nil {
		c.writeError(w, err)
		return
	}
	owner, _ := j.ownerInfo()
	writeJSON(w, http.StatusOK, c.rewrite(j, owner, st))
}

// handleExperiment forwards a render to a healthy backend, with cache
// affinity per experiment name and failover across the rest of the ring.
func (c *Coordinator) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tried := map[*Backend]bool{}
	for {
		b, _ := c.pick("exp|"+name, func(b *Backend) bool { return tried[b] })
		if b == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no backend available for render"})
			return
		}
		tried[b] = true
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.URL+"/v1/experiments/"+name, nil)
		if err != nil {
			c.writeError(w, err)
			return
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return // the caller hung up; b did nothing wrong
			}
			b.Fail(err.Error())
			c.log.Warn("render attempt failed", "experiment", name, "backend", b.ID(), "err", err.Error())
			continue
		}
		func() {
			defer resp.Body.Close()
			for k, vs := range resp.Header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
		}()
		return
	}
}

// FleetHealth is the proxy's GET /healthz body.
type FleetHealth struct {
	Status   string          `json:"status"` // "ok" with >=1 routable backend, else "unavailable"
	Backends []BackendHealth `json:"backends"`
	Jobs     int             `json:"jobs"`

	Submitted      int64 `json:"jobs_submitted"`
	Deduped        int64 `json:"jobs_deduped"`
	Failovers      int64 `json:"failovers"`
	HashMismatches int64 `json:"hash_mismatches"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	h := FleetHealth{
		Status:         "unavailable",
		Submitted:      c.submitted.Value(),
		Deduped:        c.deduped.Value(),
		Failovers:      c.failovers.Value(),
		HashMismatches: c.mismatches.Value(),
	}
	for _, b := range c.backends {
		if b.Admitted(now) {
			h.Status = "ok"
		}
		h.Backends = append(h.Backends, b.Health())
	}
	c.mu.Lock()
	h.Jobs = len(c.jobs)
	c.mu.Unlock()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// writeError renders a proxy-level failure, preserving backend bodies and
// Retry-After hints.
func (c *Coordinator) writeError(w http.ResponseWriter, err error) {
	var pe *proxyError
	if !errors.As(err, &pe) {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	if pe.retryAfter > 0 {
		secs := int(pe.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	if pe.rawBody != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(pe.code)
		_, _ = w.Write(pe.rawBody)
		return
	}
	writeJSON(w, pe.code, map[string]string{"error": pe.msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
