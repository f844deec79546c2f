package hypo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"abndp/internal/apps"
	"abndp/internal/bench"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// Executor is the slice of the bench harness a campaign needs: the
// crash-guarded single-run seam, which simulates on every call, plus the
// quick-aware workload defaults. *bench.Runner satisfies it; tests
// substitute synthetic executors to exercise aggregation without
// simulating.
type Executor interface {
	RunOne(ctx context.Context, s bench.Spec, checked bool) (*ndp.Result, error)
	DefaultParams(app string) apps.Params
	Workers() int
}

// CellResult aggregates one cell's per-seed runs.
type CellResult struct {
	Cell      Cell
	Seeds     []int64              // the spec's seeds, sorted ascending
	OKSeeds   []int64              // seeds whose run succeeded, ascending
	Samples   map[string][]float64 // metric -> value per seed, in OKSeeds order
	Summaries map[string]Summary   // metric -> mean ± CI over Samples
	Failures  []string             // per-seed failure notes
}

// VerdictResult is the decided hypothesis: the best cell of each named
// arm, the paired per-seed effect, and the three-way status.
type VerdictResult struct {
	Status        string  `json:"status"` // "confirmed", "refuted", or "inconclusive"
	Reason        string  `json:"reason"` // one-line justification for the report
	Metric        string  `json:"metric"`
	Direction     string  `json:"direction"`
	Level         string  `json:"level,omitempty"` // load level the comparison is restricted to
	MinEffect     float64 `json:"min_effect"`
	BaselineCell  int     `json:"baseline_cell"` // index into Outcome.Cells
	CandidateCell int     `json:"candidate_cell"`
	Baseline      Summary `json:"baseline"`
	Candidate     Summary `json:"candidate"`
	// Effect is the mean paired per-seed relative improvement of the
	// candidate over the baseline (Diff.Mean). Both arms run the same
	// seeds, so pairing cancels the seed-to-seed workload variance an
	// unpaired comparison drowns in; normalizing each pair by its own
	// baseline keeps big-workload seeds from dominating the statistic.
	Effect float64 `json:"effect"`
	Pairs  int     `json:"pairs"` // seeds present in both cells
	Diff   Summary `json:"diff"`  // paired per-seed relative improvement
}

// Outcome is one executed campaign.
type Outcome struct {
	Spec    *Spec
	Cells   []CellResult
	Points  []ParetoPoint // nil unless the spec declares a pareto pair
	Verdict *VerdictResult
	Runs    int // simulations requested (cells × seeds)
}

// cellConfig merges a cell's overrides onto the default configuration.
// Override precedence, least to most specific: load level config, arm
// config, grid point.
func cellConfig(c Cell) (config.Config, error) {
	cfg := config.Default()
	for _, over := range []map[string]any{c.Level.Config, c.Arm.Config} {
		if err := applyOverrides(&cfg, over); err != nil {
			return cfg, fmt.Errorf("cell %s: %w", c.Label(), err)
		}
	}
	for _, kv := range c.Grid {
		if err := applyOverrides(&cfg, map[string]any{kv.Field: kv.Value}); err != nil {
			return cfg, fmt.Errorf("cell %s: %w", c.Label(), err)
		}
	}
	return cfg, nil
}

// buildSpec turns one (cell, seed) into the fully-specified bench run.
// The seed lands in both Config.Seed (machine-level randomness: stealing
// RNG) and Params.Seed (input generation), so every seed is a genuinely
// different workload instance.
func (s *Spec) buildSpec(ex Executor, c Cell, seed int64) (bench.Spec, error) {
	design, err := config.ParseDesign(c.Arm.Design)
	if err != nil {
		return bench.Spec{}, err
	}
	cfg, err := cellConfig(c)
	if err != nil {
		return bench.Spec{}, err
	}
	cfg.Seed = seed

	p := ex.DefaultParams(s.Workload.App)
	for _, w := range []Workload{s.Workload, c.Level.Workload} {
		if w.Scale != 0 {
			p.Scale = w.Scale
		}
		if w.Degree != 0 {
			p.Degree = w.Degree
		}
		if w.Iters != 0 {
			p.Iters = w.Iters
		}
	}
	p.Seed = seed
	return bench.Spec{App: s.Workload.App, Design: design, Config: cfg, Params: p}, nil
}

// Run executes the campaign: every cell at every seed through the
// executor (concurrently, bounded by its worker count), aggregated into
// per-cell summaries, the Pareto frontier, and the verdict. Results are
// indexed by (cell, seed) before aggregation, so the outcome — including
// every floating-point sum — is independent of completion order and of
// the order seeds were listed in the spec.
func (s *Spec) Run(ctx context.Context, ex Executor, checked bool) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cells := s.Cells()
	seeds := append([]int64(nil), s.Seeds...)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	type slot struct {
		res *ndp.Result
		err error
	}
	results := make([][]slot, len(cells))
	for i := range results {
		results[i] = make([]slot, len(seeds))
	}

	workers := ex.Workers()
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ci := range cells {
		for si := range seeds {
			spec, err := s.buildSpec(ex, cells[ci], seeds[si])
			if err != nil {
				return nil, fmt.Errorf("hypo: %w", err)
			}
			wg.Add(1)
			go func(ci, si int, spec bench.Spec) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				r, err := ex.RunOne(ctx, spec, checked)
				results[ci][si] = slot{r, err}
			}(ci, si, spec)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &Outcome{Spec: s, Runs: len(cells) * len(seeds)}
	for ci, c := range cells {
		cr := CellResult{
			Cell:      c,
			Seeds:     seeds,
			Samples:   map[string][]float64{},
			Summaries: map[string]Summary{},
		}
		for si, sl := range results[ci] {
			if sl.err != nil {
				cr.Failures = append(cr.Failures, fmt.Sprintf("seed %d: %v", seeds[si], sl.err))
				continue
			}
			if sl.res == nil {
				cr.Failures = append(cr.Failures, fmt.Sprintf("seed %d: no result", seeds[si]))
				continue
			}
			if sl.res.Unrecoverable != "" {
				cr.Failures = append(cr.Failures, fmt.Sprintf("seed %d: unrecoverable: %s", seeds[si], sl.res.Unrecoverable))
				continue
			}
			cr.OKSeeds = append(cr.OKSeeds, seeds[si])
			for m, v := range extractMetrics(sl.res) {
				cr.Samples[m] = append(cr.Samples[m], v)
			}
		}
		for _, m := range MetricNames() {
			cr.Summaries[m] = Summarize(cr.Samples[m])
		}
		out.Cells = append(out.Cells, cr)
	}

	if p := s.Pareto; p != nil {
		pts := make([]ParetoPoint, 0, len(out.Cells))
		for ci, cr := range out.Cells {
			if cr.Summaries[p.X].N == 0 || cr.Summaries[p.Y].N == 0 {
				continue // a fully-failed cell has no position
			}
			pts = append(pts, ParetoPoint{Cell: ci, X: cr.Summaries[p.X].Mean, Y: cr.Summaries[p.Y].Mean})
		}
		out.Points = ParetoFront(pts)
	}

	if v := s.Verdict; v != nil {
		out.Verdict = s.decide(v, out.Cells)
	}
	return out, nil
}

// better reports whether a beats b for the direction.
func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// bestCell returns the index of the arm's best cell by the verdict
// metric's mean (ties keep the earlier cell — expansion order is
// deterministic), or -1 when every cell of the arm failed entirely.
// A non-empty level restricts the search to that load level.
func bestCell(cells []CellResult, arm, metric, direction, level string) int {
	best := -1
	for i, cr := range cells {
		if cr.Cell.Arm.Name != arm || cr.Summaries[metric].N == 0 {
			continue
		}
		if level != "" && cr.Cell.Level.Name != level {
			continue
		}
		if best < 0 || better(direction, cr.Summaries[metric].Mean, cells[best].Summaries[metric].Mean) {
			best = i
		}
	}
	return best
}

// pairedDiffs returns the per-seed relative improvements of cand over
// base on the seeds both cells completed, in ascending seed order:
// positive means the candidate was better on that seed for the
// direction. Each pair is normalized by its own baseline value, so the
// improvements are comparable across seeds whose workload instances
// differ in size. Pairs whose baseline is zero are skipped (relative
// change undefined).
func pairedDiffs(base, cand *CellResult, metric, dir string) []float64 {
	bv := map[int64]float64{}
	for i, sd := range base.OKSeeds {
		bv[sd] = base.Samples[metric][i]
	}
	var diffs []float64
	for i, sd := range cand.OKSeeds {
		b, ok := bv[sd]
		if !ok || b == 0 {
			continue
		}
		d := (b - cand.Samples[metric][i]) / math.Abs(b) // "lower": improvement = base - cand
		if dir == "higher" {
			d = -d
		}
		diffs = append(diffs, d)
	}
	return diffs
}

// decide applies the three-way verdict semantics documented in
// docs/HYPOTHESES.md. The comparison is paired per seed: both arms ran
// the same seeds, so the statistic is the mean per-seed improvement, and
// "statistically resolved" means its 95% CI excludes zero. Confirmed
// needs resolution AND at least the declared relative effect; refuted
// needs resolution with the effect below threshold (including a
// resolved deterioration); everything else is inconclusive.
func (s *Spec) decide(v *Verdict, cells []CellResult) *VerdictResult {
	dir := v.Direction
	if dir == "" {
		dir = "lower"
	}
	vr := &VerdictResult{
		Metric: v.Metric, Direction: dir, MinEffect: v.MinEffect, Level: v.Level,
		BaselineCell:  bestCell(cells, v.Baseline, v.Metric, dir, v.Level),
		CandidateCell: bestCell(cells, v.Candidate, v.Metric, dir, v.Level),
	}
	if vr.BaselineCell < 0 || vr.CandidateCell < 0 {
		vr.Status = "inconclusive"
		vr.Reason = "an arm produced no successful runs"
		return vr
	}
	base, cand := &cells[vr.BaselineCell], &cells[vr.CandidateCell]
	vr.Baseline = base.Summaries[v.Metric]
	vr.Candidate = cand.Summaries[v.Metric]
	diffs := pairedDiffs(base, cand, v.Metric, dir)
	vr.Pairs = len(diffs)
	vr.Diff = Summarize(diffs)
	vr.Effect = vr.Diff.Mean
	if vr.Pairs < 2 {
		vr.Status = "inconclusive"
		vr.Reason = fmt.Sprintf("%d paired seeds; at least 2 needed for a confidence interval", vr.Pairs)
		return vr
	}
	// Resolved: the paired-improvement CI excludes zero.
	resolved := vr.Diff.Mean-vr.Diff.CI > 0 || vr.Diff.Mean+vr.Diff.CI < 0
	switch {
	case resolved && vr.Effect >= v.MinEffect:
		vr.Status = "confirmed"
		vr.Reason = fmt.Sprintf("paired effect %.4g >= declared minimum %.4g, 95%% CI of the per-seed improvement excludes zero (%d pairs)",
			vr.Effect, v.MinEffect, vr.Pairs)
	case resolved:
		vr.Status = "refuted"
		vr.Reason = fmt.Sprintf("per-seed improvement is statistically resolved (%d pairs) but the effect %.4g falls short of the declared minimum %.4g",
			vr.Pairs, vr.Effect, v.MinEffect)
	default:
		vr.Status = "inconclusive"
		vr.Reason = fmt.Sprintf("95%% CI of the paired per-seed improvement includes zero (%d pairs); more seeds or a larger workload needed", vr.Pairs)
	}
	return vr
}
