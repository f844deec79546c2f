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
	"sync/atomic"
	"time"

	"abndp/internal/serve"
)

// maxOwnerDeaths is the failover budget: once this many owners have died
// holding a job and the result store has no answer for it, the job is
// poisoned — ended failed and never dispatched again — so a request that
// crashes its backend cannot walk the ring taking every backend down.
const maxOwnerDeaths = 2

// pjob is one fleet-tracked job: the canonical submission body (kept for
// re-dispatch), the current owning backend, and the integrity record.
type pjob struct {
	id   string // fleet job ID ("job-000001")
	key  string // serve.RouteKey — fleet dedup identity
	body []byte // canonical re-marshalled RunRequest, replayed on failover

	mu         sync.Mutex
	owner      *Backend
	ownerRunID string
	dead       []string // IDs of the owners that died holding the job; len is its failover count
	lastHash   string   // first result_hash seen; later completions must match
}

func newPJob(id, key string, body []byte) *pjob {
	return &pjob{id: id, key: key, body: body}
}

func (j *pjob) ownerInfo() (*Backend, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.owner, j.ownerRunID
}

func (j *pjob) setOwner(b *Backend, runID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.owner, j.ownerRunID = b, runID
}

// dropOwner clears the owner if it is still dead — a concurrent poll may
// already have re-dispatched — and records the death. Reports whether
// this call did the clearing (and so owns the failover accounting).
func (j *pjob) dropOwner(dead *Backend) bool {
	id := dead.ID()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.owner != dead {
		return false
	}
	j.owner, j.ownerRunID = nil, ""
	j.dead = append(j.dead, id)
	return true
}

// poisoned returns j's terminal failed status once maxOwnerDeaths owners
// have died holding it, nil while it has failover budget left. The status
// is rebuilt from the death record, so every later poll sees the same one.
func (j *pjob) poisoned() *serve.RunStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.dead) < maxOwnerDeaths {
		return nil
	}
	return &serve.RunStatus{Status: serve.StateFailed, Error: fmt.Sprintf(
		"job poisoned: its owners %s died holding it; it will not be dispatched again",
		strings.Join(j.dead, " and "))}
}

func (j *pjob) recordHash(hash string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastHash = hash
}

func (j *pjob) hashSnapshot() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastHash
}

func (j *pjob) snapshotFailovers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.dead)
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

// dispatch places j on a backend: ring-order candidates per round,
// failures feed the breaker, explicit 429/503 rejections move on to the
// next candidate and set the backoff floor between rounds. A caller that
// hangs up ends it with ctx.Err() and feeds no breaker. exclude removes a
// just-died owner from the first re-dispatch so failover cannot bounce
// straight back.
func (c *Coordinator) dispatch(ctx context.Context, j *pjob, exclude *Backend) (*Backend, *serve.RunStatus, error) {
	var hint time.Duration
	for round := 0; round < c.cfg.MaxAttempts; round++ {
		if round > 0 {
			fleetRetryRounds.Add(1)
			if err := c.cfg.Retry.Sleep(ctx, round-1, hint); err != nil {
				return nil, nil, &proxyError{code: http.StatusServiceUnavailable, msg: err.Error()}
			}
			hint = 0
		}
		tried := map[*Backend]bool{}
		for {
			b := c.pick(j.key, func(b *Backend) bool { return tried[b] || b == exclude })
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
			fleetDispatches.Add(1)
			j.setOwner(b, st.ID)
			c.log.Info("dispatched", "job", j.id, "key", j.key, "backend", b.ID(),
				"backend_run", st.ID, "dedup", st.Dedup)
			return b, st, nil
		}
		// After the final round there is no one left to wait for.
		if round == c.cfg.MaxAttempts-1 {
			break
		}
	}
	fleetRejected.Add(1)
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

// await returns j's status, long-polling up to wait. The loop re-dispatches
// around dead owners — serving straight from the shared result store when
// it already holds the key's completed result, and giving up on a
// poisoned job — and every terminal "done" passes the hash cross-check.
// A caller that hangs up gets ctx.Err(): its owner is not failed over.
func (c *Coordinator) await(ctx context.Context, j *pjob, wait time.Duration) (*serve.RunStatus, error) {
	deadline := time.Now().Add(wait)
	for {
		owner, runID := j.ownerInfo()
		if owner == nil {
			if st, err := c.serveFromStore(ctx, j, nil); err != nil || st != nil {
				return st, err
			}
			if st := j.poisoned(); st != nil {
				return st, nil
			}
			b, st, err := c.dispatch(ctx, j, nil)
			if err != nil {
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
// backend merely lost the run), clear ownership, then answer from the
// shared result store when it already holds the key's completed result —
// zero recomputation — or else poison the job if its failover budget is
// spent, or re-dispatch it elsewhere. A non-nil status is terminal and
// the caller is done.
func (c *Coordinator) failover(ctx context.Context, j *pjob, owner *Backend, cause error) (*serve.RunStatus, error) {
	if !errors.Is(cause, errLostRun) {
		owner.Fail(cause.Error())
	}
	if !j.dropOwner(owner) {
		return nil, nil // a concurrent poll already failed over; reuse its work
	}
	fleetFailovers.Add(1)
	c.failoversN.Add(1)
	c.log.Warn("failover", "job", j.id, "key", j.key, "dead", owner.ID(), "cause", cause.Error())
	if st, err := c.serveFromStore(ctx, j, owner); err != nil || st != nil {
		return st, err
	}
	if st := j.poisoned(); st != nil {
		fleetPoisoned.Add(1)
		c.log.Error("job poisoned", "job", j.id, "key", j.key, "err", st.Error)
		c.markTerminal(j)
		return st, nil
	}
	b, st, err := c.dispatch(ctx, j, owner)
	if err != nil {
		return nil, err
	}
	if isTerminal(st.Status) {
		return c.finish(j, b, st)
	}
	return nil, nil
}

// serveFromStore answers j from the shared result store when it holds the
// key's completed result: the warm memo that makes a failover or ring
// rebalance free. The entry is hash-verified against the job's recorded
// integrity hash, then replicated to a live backend (excluding a
// just-dead owner) through POST /v1/runs/{id}/adopt so the new owner
// serves future polls itself. Returns (nil, nil) on a store miss.
func (c *Coordinator) serveFromStore(ctx context.Context, j *pjob, exclude *Backend) (*serve.RunStatus, error) {
	st, hash, computedBy, ok := c.store.Get(j.key)
	if !ok {
		return nil, nil
	}
	if recorded := j.hashSnapshot(); recorded != "" && recorded != hash {
		fleetHashMismatches.Add(1)
		c.mismatchN.Add(1)
		c.log.Error("fleet integrity violation (store)", "job", j.id, "key", j.key,
			"store_hash", hash, "recorded", recorded)
		return nil, &proxyError{
			code: http.StatusBadGateway,
			msg: fmt.Sprintf("integrity violation: result store holds hash %s for job %s, but %s was recorded earlier",
				hash, j.id, recorded),
		}
	}
	fleetStoreHits.Add(1)
	c.storeHitsN.Add(1)
	j.recordHash(hash)
	st.FromStore = true
	if st.Backend == "" {
		st.Backend = computedBy
	}
	// Re-warm the fleet: replicate the memo onto a live backend so it
	// owns the key again (polls and fleet-wide dedup keep a live owner).
	// Failure to adopt is not failure to answer — the store's copy is
	// authoritative either way.
	if b := c.pick(j.key, func(x *Backend) bool { return x == exclude }); b != nil {
		if runID, err := c.adopt(ctx, b, j, hash, st.Result); err == nil {
			j.setOwner(b, runID)
			st.Backend = b.ID()
			fleetAdoptions.Add(1)
			c.adoptionsN.Add(1)
			c.log.Info("replicated stored result", "job", j.id, "key", j.key,
				"to", b.ID(), "backend_run", runID)
		} else {
			c.log.Warn("adopt failed; serving from store unreplicated",
				"job", j.id, "backend", b.ID(), "err", err.Error())
		}
	}
	c.markTerminal(j)
	c.log.Info("served from result store", "job", j.id, "key", j.key, "hash", hash)
	return st, nil
}

// adopt replicates a completed result onto b via the backend's adopt
// endpoint, returning the backend-local run ID of the adopted job.
func (c *Coordinator) adopt(ctx context.Context, b *Backend, j *pjob, hash string, sum *serve.RunSummary) (string, error) {
	var rr serve.RunRequest
	if err := json.Unmarshal(j.body, &rr); err != nil {
		return "", fmt.Errorf("adopt: replay body: %w", err)
	}
	body, err := json.Marshal(&serve.AdoptRequest{Request: rr, ResultHash: hash, Result: sum})
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/v1/runs/"+j.id+"/adopt", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b.hist().ObserveSince(t0)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("adopt: HTTP %d from %s", resp.StatusCode, b.ID())
	}
	var st serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("adopt: decode response: %w", err)
	}
	return st.ID, nil
}

// finish applies the fleet integrity check to a terminal status: once any
// backend has reported a result_hash for this job, every later completion
// — a re-dispatch after a backend death, a dedup join — must report the
// byte-identical hash. The engine's deterministic FNV-1a result hash
// makes equality the correct invariant: same spec, same hash, on any
// healthy backend.
func (c *Coordinator) finish(j *pjob, b *Backend, st *serve.RunStatus) (*serve.RunStatus, error) {
	if st.Status != serve.StateDone {
		c.markTerminal(j) // failed: terminal too, so it ages out of the maps
		return st, nil
	}
	j.mu.Lock()
	prev := j.lastHash
	if prev != "" && st.ResultHash != prev {
		j.mu.Unlock()
		fleetHashMismatches.Add(1)
		c.mismatchN.Add(1)
		c.log.Error("fleet integrity violation", "job", j.id, "key", j.key,
			"backend", b.ID(), "hash", st.ResultHash, "recorded", prev)
		return nil, &proxyError{
			code: http.StatusBadGateway,
			msg: fmt.Sprintf("integrity violation: backend %s reports result_hash %s for job %s, but %s was recorded earlier",
				b.ID(), st.ResultHash, j.id, prev),
		}
	}
	j.lastHash = st.ResultHash
	j.mu.Unlock()
	// Every completion the proxy observes lands in the shared result
	// store: from here on, this key's result survives its backend.
	c.store.Put(j.key, st, b.ID())
	c.markTerminal(j)
	return st, nil
}

// markTerminal registers j in the terminal-job LRU and evicts beyond
// JobCap: a long-running proxy must not grow its jobs/byKey maps without
// bound as jobs complete. An evicted job's result stays
// reachable — by route key — through the shared result store; only the
// fleet job ID forgets. In-flight jobs are never evicted.
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
		fleetJobEvictions.Add(1)
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
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
	fleetSubmitted.Add(1)
	c.submittedN.Add(1)

	c.mu.Lock()
	if j := c.byKey[key]; j != nil {
		c.mu.Unlock()
		fleetDeduped.Add(1)
		c.dedupedN.Add(1)
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

	// Cold-owner store check: the fleet already completed this key once
	// (its terminal job has since been evicted, or its owner has died).
	// Serve the memo and re-adopt it onto the ring owner — no backend
	// computes anything.
	if st, serr := c.serveFromStore(r.Context(), j, nil); serr != nil {
		c.mu.Lock()
		delete(c.jobs, j.id)
		delete(c.byKey, key)
		c.mu.Unlock()
		c.writeError(w, serr)
		return
	} else if st != nil {
		owner, _ := j.ownerInfo()
		writeJSON(w, http.StatusOK, c.rewrite(j, owner, st))
		return
	}

	b, st, err := c.dispatch(r.Context(), j, nil)
	if err != nil {
		// Unplaced jobs must not poison the key: the next submission
		// starts fresh.
		c.mu.Lock()
		delete(c.jobs, j.id)
		delete(c.byKey, key)
		c.mu.Unlock()
		c.writeError(w, err)
		return
	}
	// A synchronously-terminal dispatch (memo-warm backend) goes through
	// the same integrity check and result-store feed as a polled one.
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
		b := c.pick("exp|"+name, func(b *Backend) bool { return tried[b] })
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

	// Shared result store counters.
	StoreEntries   int   `json:"store_entries"`
	StoreHits      int64 `json:"store_hits"`
	StoreEvictions int64 `json:"store_evictions,omitempty"`
	Adoptions      int64 `json:"adoptions"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	h := FleetHealth{
		Status:         "unavailable",
		Submitted:      c.submittedN.Load(),
		Deduped:        c.dedupedN.Load(),
		Failovers:      c.failoversN.Load(),
		HashMismatches: c.mismatchN.Load(),
		StoreEntries:   c.store.Len(),
		StoreHits:      c.storeHitsN.Load(),
		StoreEvictions: c.store.Evictions(),
		Adoptions:      c.adoptionsN.Load(),
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

// Per-coordinator counters for /healthz (the fleet_* expvars are
// process-global and shared across Coordinators in tests).
type coordCounters struct {
	submittedN, dedupedN, failoversN, mismatchN atomic.Int64
	storeHitsN, adoptionsN                      atomic.Int64
}
