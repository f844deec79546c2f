package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"abndp/internal/apps"
	"abndp/internal/bench"
	"abndp/internal/config"
	"abndp/internal/fault"
)

// RunRequest is the POST /v1/runs body: one fully specified simulation
// job. Omitted params take the benchmark sizing for the workload (quick
// sizing when the server runs -quick), so the canonical cache keys line up
// with the ones the experiment sweeps warm. Omitted config fields take the
// Table 1 defaults — the same values as abndpsim's flag defaults, so a
// job's ResultHash is byte-identical to a standalone abndpsim run of the
// same spec.
type RunRequest struct {
	App    string      `json:"app"`
	Design string      `json:"design"`
	Params *ParamsSpec `json:"params,omitempty"`
	Config *ConfigSpec `json:"config,omitempty"`

	// Check audits this job's simulation (runtime invariants plus the
	// dual-run determinism hash, roughly doubling its cost). A key that is
	// already cached reuses the memoized result unaudited.
	Check bool `json:"check,omitempty"`
}

// ParamsSpec sizes the workload (abndpsim's -scale/-degree/-iters/-seed).
// A zero seed means the default input seed 42, matching abndpsim.
type ParamsSpec struct {
	Scale        int   `json:"scale,omitempty"`
	Degree       int   `json:"degree,omitempty"`
	Iters        int   `json:"iters,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	PerfectHints bool  `json:"perfect_hints,omitempty"`
}

// ConfigSpec overrides individual system parameters, mirroring abndpsim's
// configuration flags. Pointer fields distinguish "absent" from an
// explicit zero.
type ConfigSpec struct {
	Mesh             int      `json:"mesh,omitempty"`
	CacheRatio       int      `json:"ratio,omitempty"`
	CampCount        int      `json:"campcount,omitempty"`
	CacheWays        int      `json:"ways,omitempty"`
	Bypass           *float64 `json:"bypass,omitempty"`
	Alpha            *float64 `json:"alpha,omitempty"`
	Exchange         int64    `json:"exchange,omitempty"`
	IdenticalMapping bool     `json:"identical_mapping,omitempty"`
	LRU              bool     `json:"lru,omitempty"`
	ProbeAll         bool     `json:"probe_all,omitempty"`
	Torus            bool     `json:"torus,omitempty"`
	Faults           string   `json:"faults,omitempty"`
	FaultSeed        int64    `json:"fault_seed,omitempty"`
}

// RunStatus is the job representation returned by POST /v1/runs and
// GET /v1/runs/{id}.
type RunStatus struct {
	ID string `json:"id"`
	// RequestID identifies the submission that created the job — the key
	// into the structured logs and the job's Perfetto trace. Dedup'd
	// submissions see the original job's request ID (their own appears in
	// the log line that recorded the join).
	RequestID string `json:"request_id,omitempty"`
	Key       string `json:"key"` // canonical cache key (dedup identity)
	Status    string `json:"status"`
	App       string `json:"app"`
	Design    string `json:"design"`

	// Backend names the serve process that owns the job (abndpserve -id),
	// echoed so fleet clients can attribute work to a process. The fleet
	// proxy preserves it when rewriting IDs into the fleet namespace.
	Backend string `json:"backend,omitempty"`

	// Failovers counts the times the fleet proxy re-dispatched this job to
	// another backend after its owner died mid-flight. Set only by
	// abndpproxy; a direct backend response always reports zero.
	Failovers int `json:"failovers,omitempty"`

	// TraceFile is the job's Perfetto trace path (server -trace-dir only),
	// populated once the job finishes: serve-tier request spans plus the
	// engine's task spans and counter tracks on one timeline.
	TraceFile string `json:"trace_file,omitempty"`

	// Dedup marks a submission that joined an existing job for the same
	// canonical key instead of costing a new simulation.
	Dedup bool `json:"dedup,omitempty"`

	// FromStore marks a status served from the fleet proxy's shared
	// result store instead of a live backend computation — a warm result
	// somewhere in the fleet answered after the computing backend died or
	// the fleet job was evicted. Set only by abndpproxy.
	FromStore bool `json:"from_store,omitempty"`

	// Adopted marks a job this backend did not compute: the result was
	// replicated into it via POST /v1/runs/{id}/adopt (fleet result
	// replication after a failover or ring rebalance).
	Adopted bool `json:"adopted,omitempty"`

	// ResultHash is the FNV-1a fingerprint of every deterministic result
	// field (%016x), identical across reruns of the same spec anywhere —
	// clients verify determinism against local abndpsim runs.
	ResultHash string      `json:"result_hash,omitempty"`
	Result     *RunSummary `json:"result,omitempty"`

	Error string `json:"error,omitempty"`
	Hung  bool   `json:"hung,omitempty"` // failed by exceeding the per-run deadline

	// CheckViolations counts recorded invariant breaches for this job's
	// key when it ran audited (server -check or request check:true).
	CheckViolations int `json:"check_violations,omitempty"`

	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// RunSummary carries the headline metrics of a completed run.
type RunSummary struct {
	Makespan      int64   `json:"makespan_cycles"`
	Seconds       float64 `json:"seconds"`
	Tasks         int64   `json:"tasks"`
	Steps         int64   `json:"steps"`
	InterHops     int64   `json:"inter_hops"`
	EnergyUJ      float64 `json:"energy_uj"`
	Imbalance     float64 `json:"imbalance"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Unrecoverable string  `json:"unrecoverable,omitempty"`
}

// AdoptRequest is the POST /v1/runs/{id}/adopt body: a completed result
// another backend (or the fleet proxy's result store) already holds,
// replicated into this backend so polls and dedup'd submissions for the
// same canonical key are answered here without recomputation. The {id}
// path element names the fleet-level job being adopted (attribution in
// logs); the backend assigns its own run ID to the adopted job.
//
// Adoption registers a terminal job under the request's canonical cache
// key — it does not warm the engine-level memo cache, so an adopted
// backend serves the *result* instantly while a genuinely new
// simulation of the same spec elsewhere still computes (and is then
// integrity-checked against the adopted hash by the proxy).
type AdoptRequest struct {
	// Request is the original submission, re-validated here so the
	// adopted job lands under the same canonical key a direct submit
	// would use.
	Request RunRequest `json:"request"`
	// ResultHash is the FNV-1a result fingerprint (%016x) the computing
	// backend reported. Required; it is the integrity record future
	// completions are checked against.
	ResultHash string `json:"result_hash"`
	// Result is the completed run's summary. Required.
	Result *RunSummary `json:"result"`
}

// Ready is the GET /readyz body: the readiness half of the health split.
// /healthz is liveness (the process answers and reports its counters,
// even while draining); /readyz is willingness to accept new work — 503
// while the worker pool is starting or the server is draining. The fleet
// proxy probes it for admission (ready vs. draining) and shows the queue
// and service-time fields in its /healthz backend rows.
type Ready struct {
	Status     string `json:"status"` // "ready", "starting", or "draining"
	BackendID  string `json:"backend_id,omitempty"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`

	// MeanRunSeconds is the observed mean job execution time (zero until
	// the first run completes) — the service-rate factor in the server's
	// own Retry-After estimates.
	MeanRunSeconds float64 `json:"mean_run_seconds,omitempty"`
	Completed      int64   `json:"jobs_completed"`
}

// Health is the GET /healthz body.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	BackendID  string `json:"backend_id,omitempty"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`

	Submitted int64 `json:"jobs_submitted"`
	Deduped   int64 `json:"jobs_deduped"`
	Rejected  int64 `json:"jobs_rejected"`
	Completed int64 `json:"jobs_completed"`
	Failed    int64 `json:"jobs_failed"`
	// Adopted counts results replicated into this backend via the adopt
	// endpoint (fleet result replication), which cost no simulation.
	Adopted int64 `json:"jobs_adopted,omitempty"`

	// Runs counts simulations actually executed (memo cache misses): the
	// gap between jobs_completed and runs is the work the warm cache and
	// dedup saved.
	Runs int64 `json:"runs_executed"`

	// Latency is the end-to-end request-latency distribution (seconds,
	// submit to terminal state), estimated from the serve_request_seconds
	// histogram. Absent until the first job finishes.
	Latency *LatencySummary `json:"request_latency,omitempty"`
}

// LatencySummary is an in-process quantile estimate over a latency
// histogram: p50/p95/p99 in seconds, log-bucket interpolated (factor-2
// worst-case error; see internal/obs).
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// RouteKey is the fleet-routing identity of a request: a deterministic
// normalization of the submission that maps identical jobs to identical
// keys without needing a warm Runner (the proxy has none). It fills the
// same defaults buildSpec would (input seed 42) and excludes Check —
// auditing changes the job's cost, not its result — then fingerprints the
// canonical JSON. Two requests with equal RouteKeys always have equal
// server-side cache keys; the converse can miss only when a client spells
// the same spec through different explicit-default fields, which merely
// costs a second backend one cached simulation, never correctness.
func RouteKey(req *RunRequest) string {
	shadow := struct {
		App    string      `json:"app"`
		Design string      `json:"design"`
		Params *ParamsSpec `json:"params,omitempty"`
		Config *ConfigSpec `json:"config,omitempty"`
	}{req.App, req.Design, req.Params, req.Config}
	if req.Params != nil && req.Params.Seed == 0 {
		p := *req.Params
		p.Seed = 42
		shadow.Params = &p
	}
	raw, _ := json.Marshal(shadow) // struct of plain fields; cannot fail
	h := fnv.New64a()
	_, _ = h.Write(raw)
	return fmt.Sprintf("%s|%s|%016x", req.App, req.Design, h.Sum64())
}

// knownApp reports whether name is a built-in workload.
func knownApp(name string) bool {
	for _, n := range apps.Names {
		if n == name {
			return true
		}
	}
	for _, n := range apps.ExtraNames {
		if n == name {
			return true
		}
	}
	return false
}

// buildSpec validates one request against the server's base configuration
// and resolves it to the canonical run spec. Every error is a client
// error (HTTP 400).
func (s *Server) buildSpec(req *RunRequest) (bench.Spec, error) {
	if !knownApp(req.App) {
		return bench.Spec{}, fmt.Errorf("unknown workload %q (known: %v + %v)", req.App, apps.Names, apps.ExtraNames)
	}
	d, err := config.ParseDesign(req.Design)
	if err != nil {
		return bench.Spec{}, err
	}
	if d == config.DesignH {
		return bench.Spec{}, fmt.Errorf("design H is the host baseline and has no timing simulation; submit an NDP design (%v)", config.NDPDesigns)
	}

	cfg := s.base
	if c := req.Config; c != nil {
		if c.Mesh != 0 {
			cfg.MeshX, cfg.MeshY = c.Mesh, c.Mesh
		}
		if c.CacheRatio != 0 {
			cfg.CacheRatio = c.CacheRatio
		}
		if c.CampCount != 0 {
			cfg.CampCount = c.CampCount
		}
		if c.CacheWays != 0 {
			cfg.CacheWays = c.CacheWays
		}
		if c.Bypass != nil {
			cfg.BypassProb = *c.Bypass
		}
		if c.Alpha != nil {
			cfg.HybridAlpha = *c.Alpha
		}
		if c.Exchange > 0 {
			cfg.ExchangeInterval = c.Exchange
		}
		if c.IdenticalMapping {
			cfg.SkewedMapping = false
		}
		if c.LRU {
			cfg.Replacement = config.ReplaceLRU
		}
		cfg.ProbeAllCamps = cfg.ProbeAllCamps || c.ProbeAll
		cfg.Torus = cfg.Torus || c.Torus
		if c.Faults != "" {
			plan, err := fault.Parse(c.Faults)
			if err != nil {
				return bench.Spec{}, err
			}
			cfg.Faults = plan
		}
		if c.FaultSeed != 0 {
			cfg.Faults.Seed = c.FaultSeed
		}
	}
	// Reject invalid configurations at submit time, not as a crashed job:
	// the simulator validates the design-applied view.
	applied := d.Apply(cfg)
	if err := applied.Validate(); err != nil {
		return bench.Spec{}, err
	}

	var p apps.Params
	if req.Params == nil {
		p = s.runner.DefaultParams(req.App)
	} else {
		p = apps.Params{
			Scale:        req.Params.Scale,
			Degree:       req.Params.Degree,
			Iters:        req.Params.Iters,
			Seed:         req.Params.Seed,
			PerfectHints: req.Params.PerfectHints,
		}
		if p.Seed == 0 {
			p.Seed = 42
		}
		if p.Scale < 0 || p.Degree < 0 || p.Iters < 0 {
			return bench.Spec{}, fmt.Errorf("params must be non-negative: %+v", *req.Params)
		}
	}
	return bench.Spec{App: req.App, Design: d, Config: cfg, Params: p}, nil
}
