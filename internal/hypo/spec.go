// Package hypo turns declarative experiment specs into hypothesis-driven
// campaigns over the simulator: a JSON spec names a hypothesis, a set of
// experimental arms (design + config overrides, optionally swept over a
// parameter grid), seed lists for multi-seed statistics, and load levels;
// the campaign expands the spec into fully-specified runs, executes them
// through the bench harness's memoized plan/execute seam, aggregates each
// cell into mean ± confidence interval, extracts the Pareto frontier over
// a chosen metric pair, and renders a FINDINGS report whose verdict —
// confirmed, refuted, or inconclusive — is gated on a declared minimum
// effect size, never on eyeballing.
//
// Specs are JSON (not YAML) so the package stays inside the standard
// library. See docs/HYPOTHESES.md for the grammar and the worked example
// under examples/hypotheses/.
package hypo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"

	"abndp/internal/apps"
	"abndp/internal/config"
)

// Workload sizes the simulated application; zero fields inherit the bench
// harness defaults for the app (quick-aware).
type Workload struct {
	App    string `json:"app"`
	Scale  int    `json:"scale,omitempty"`
	Degree int    `json:"degree,omitempty"`
	Iters  int    `json:"iters,omitempty"`
}

// Arm is one experimental condition: a Table 2 design plus config
// overrides, optionally swept over a grid of config values. An arm with a
// grid expands into one cell per grid point (cross product over the grid
// fields, in sorted field order).
type Arm struct {
	Name   string               `json:"name"`
	Design string               `json:"design"`
	Config map[string]any       `json:"config,omitempty"`
	Grid   map[string][]float64 `json:"grid,omitempty"`
}

// LoadLevel scales the workload and/or config for one load regime (e.g.
// light vs. heavy input). Every cell runs at every load level.
type LoadLevel struct {
	Name     string         `json:"name"`
	Workload Workload       `json:"workload,omitempty"`
	Config   map[string]any `json:"config,omitempty"`
}

// Pareto selects the metric pair whose per-cell means form the trade-off
// scatter; both metrics are minimized (the report marks the non-dominated
// frontier).
type Pareto struct {
	X string `json:"x"`
	Y string `json:"y"`
}

// Verdict declares how the hypothesis is decided: compare the candidate
// arm's best cell against the baseline arm's best cell on Metric
// (direction "lower" or "higher" defines better). The comparison is
// paired per seed — both cells ran the same seeds, so the statistic is
// the mean per-seed improvement, which cancels seed-to-seed workload
// variance. Confirmation demands at least MinEffect relative improvement
// with the improvement's 95% CI excluding zero. Level, when set,
// restricts the comparison to cells of that load level — absolute
// metrics are not comparable across workload sizes, so a multi-level
// spec should pin the level the hypothesis is about. See
// docs/HYPOTHESES.md for the exact three-way semantics.
type Verdict struct {
	Baseline  string  `json:"baseline"`
	Candidate string  `json:"candidate"`
	Metric    string  `json:"metric"`
	Direction string  `json:"direction"` // "lower" (default) or "higher"
	MinEffect float64 `json:"min_effect"`
	Level     string  `json:"level,omitempty"` // restrict comparison to this load level
}

// Spec is one declarative hypothesis campaign.
type Spec struct {
	Name       string      `json:"name"`
	Title      string      `json:"title"`
	Hypothesis string      `json:"hypothesis"`
	Workload   Workload    `json:"workload"`
	Arms       []Arm       `json:"arms"`
	Seeds      []int64     `json:"seeds"`
	LoadLevels []LoadLevel `json:"load_levels,omitempty"`
	Pareto     *Pareto     `json:"pareto,omitempty"`
	Verdict    *Verdict    `json:"verdict,omitempty"`
}

// Load parses and validates a spec from r.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("hypo: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hypo: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("hypo: %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec's internal consistency: names present, designs
// parseable, config override fields existing, seeds non-empty and unique,
// and verdict arms resolving. It does not run anything.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("hypo: spec has no name")
	}
	if s.Workload.App == "" {
		return fmt.Errorf("hypo: spec %s has no workload app", s.Name)
	}
	if _, err := apps.New(s.Workload.App, apps.Params{Scale: 4, Degree: 2}); err != nil {
		return fmt.Errorf("hypo: spec %s: %w", s.Name, err)
	}
	if len(s.Arms) == 0 {
		return fmt.Errorf("hypo: spec %s has no arms", s.Name)
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("hypo: spec %s has no seeds", s.Name)
	}
	seen := map[int64]bool{}
	for _, sd := range s.Seeds {
		if seen[sd] {
			return fmt.Errorf("hypo: spec %s repeats seed %d", s.Name, sd)
		}
		seen[sd] = true
	}
	armNames := map[string]bool{}
	for i, a := range s.Arms {
		if a.Name == "" {
			return fmt.Errorf("hypo: spec %s arm %d has no name", s.Name, i)
		}
		if armNames[a.Name] {
			return fmt.Errorf("hypo: spec %s repeats arm name %q", s.Name, a.Name)
		}
		armNames[a.Name] = true
		if _, err := config.ParseDesign(a.Design); err != nil {
			return fmt.Errorf("hypo: spec %s arm %s: %w", s.Name, a.Name, err)
		}
		if err := checkOverrideFields(a.Config); err != nil {
			return fmt.Errorf("hypo: spec %s arm %s: %w", s.Name, a.Name, err)
		}
		for field, vals := range a.Grid {
			if len(vals) == 0 {
				return fmt.Errorf("hypo: spec %s arm %s grid field %s has no values", s.Name, a.Name, field)
			}
			if err := checkOverrideFields(map[string]any{field: vals[0]}); err != nil {
				return fmt.Errorf("hypo: spec %s arm %s: %w", s.Name, a.Name, err)
			}
		}
	}
	levelNames := map[string]bool{}
	for i, l := range s.LoadLevels {
		if l.Name == "" {
			return fmt.Errorf("hypo: spec %s load level %d has no name", s.Name, i)
		}
		if levelNames[l.Name] {
			return fmt.Errorf("hypo: spec %s repeats load level %q", s.Name, l.Name)
		}
		levelNames[l.Name] = true
		if err := checkOverrideFields(l.Config); err != nil {
			return fmt.Errorf("hypo: spec %s load level %s: %w", s.Name, l.Name, err)
		}
	}
	if p := s.Pareto; p != nil {
		for _, m := range []string{p.X, p.Y} {
			if !validMetric(m) {
				return fmt.Errorf("hypo: spec %s pareto metric %q unknown (have: %v)", s.Name, m, MetricNames())
			}
		}
	}
	if v := s.Verdict; v != nil {
		if !armNames[v.Baseline] {
			return fmt.Errorf("hypo: spec %s verdict baseline %q is not an arm", s.Name, v.Baseline)
		}
		if !armNames[v.Candidate] {
			return fmt.Errorf("hypo: spec %s verdict candidate %q is not an arm", s.Name, v.Candidate)
		}
		if !validMetric(v.Metric) {
			return fmt.Errorf("hypo: spec %s verdict metric %q unknown (have: %v)", s.Name, v.Metric, MetricNames())
		}
		switch v.Direction {
		case "", "lower", "higher":
		default:
			return fmt.Errorf("hypo: spec %s verdict direction %q (want lower or higher)", s.Name, v.Direction)
		}
		if v.MinEffect < 0 || v.MinEffect >= 1 {
			return fmt.Errorf("hypo: spec %s verdict min_effect %v outside [0, 1)", s.Name, v.MinEffect)
		}
		if v.Level != "" && !levelNames[v.Level] {
			return fmt.Errorf("hypo: spec %s verdict level %q is not a load level", s.Name, v.Level)
		}
	}
	// Every cell's merged configuration (level + arm + grid overrides)
	// must pass the simulator's own validation, so out-of-range values —
	// including policy parameters checked against their registered
	// schemas — fail at spec load, not as per-run panics mid-campaign.
	for _, c := range s.Cells() {
		cfg, err := cellConfig(c)
		if err != nil {
			return fmt.Errorf("hypo: spec %s: %w", s.Name, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("hypo: spec %s cell %s: %w", s.Name, c.Label(), err)
		}
	}
	return nil
}

// GridPoint is one assignment of grid fields to values, in sorted field
// order so cell identity is deterministic.
type GridPoint []struct {
	Field string
	Value float64
}

// Label renders the point as "Field=value, ..." ("" for the empty point).
func (g GridPoint) Label() string {
	out := ""
	for i, kv := range g {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%s", kv.Field, formatFloat(kv.Value))
	}
	return out
}

// Cell is one fully-expanded experimental condition: an arm at a grid
// point under a load level. Each cell runs once per seed.
type Cell struct {
	Index int // position in expansion order (stable across reruns)
	Arm   Arm
	Grid  GridPoint
	Level LoadLevel // zero-value Level with Name "" when the spec has none
}

// Label names the cell for tables: "arm [grid] @ level".
func (c Cell) Label() string {
	l := c.Arm.Name
	if g := c.Grid.Label(); g != "" {
		l += " [" + g + "]"
	}
	if c.Level.Name != "" {
		l += " @ " + c.Level.Name
	}
	return l
}

// Cells expands the spec into its cell list: arms × grid points × load
// levels, in declaration order (grids expand with sorted field names, so
// the expansion is deterministic for a given spec).
func (s *Spec) Cells() []Cell {
	levels := s.LoadLevels
	if len(levels) == 0 {
		levels = []LoadLevel{{}}
	}
	var cells []Cell
	for _, arm := range s.Arms {
		for _, gp := range expandGrid(arm.Grid) {
			for _, lvl := range levels {
				cells = append(cells, Cell{Index: len(cells), Arm: arm, Grid: gp, Level: lvl})
			}
		}
	}
	return cells
}

// expandGrid returns the cross product of the grid's fields in sorted
// field order; an empty grid yields the single empty point.
func expandGrid(grid map[string][]float64) []GridPoint {
	if len(grid) == 0 {
		return []GridPoint{nil}
	}
	fields := make([]string, 0, len(grid))
	for f := range grid {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	points := []GridPoint{nil}
	for _, f := range fields {
		var next []GridPoint
		for _, base := range points {
			for _, v := range grid[f] {
				gp := append(append(GridPoint(nil), base...), struct {
					Field string
					Value float64
				}{f, v})
				next = append(next, gp)
			}
		}
		points = next
	}
	return points
}

// checkOverrideFields verifies every override names an assignable Config
// field of a supported kind with a type-compatible value.
func checkOverrideFields(over map[string]any) error {
	if len(over) == 0 {
		return nil
	}
	c := config.Default()
	return applyOverrides(&c, over)
}

// applyOverrides assigns override values onto c by field name. JSON
// numbers arrive as float64 and convert to the field's numeric kind;
// strings set string fields (SchedPolicy). An unknown field or mismatched
// type is an error — silently ignoring a typo would run the wrong
// experiment.
func applyOverrides(c *config.Config, over map[string]any) error {
	rv := reflect.ValueOf(c).Elem()
	names := make([]string, 0, len(over))
	for n := range over {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f := rv.FieldByName(name)
		if !f.IsValid() {
			return fmt.Errorf("config has no field %q", name)
		}
		val := over[name]
		switch f.Kind() {
		case reflect.Float64:
			x, ok := val.(float64)
			if !ok {
				return fmt.Errorf("field %s wants a number, got %T", name, val)
			}
			f.SetFloat(x)
		case reflect.Int, reflect.Int64:
			x, ok := val.(float64)
			if !ok || x != float64(int64(x)) {
				return fmt.Errorf("field %s wants an integer, got %v", name, val)
			}
			f.SetInt(int64(x))
		case reflect.Uint64:
			x, ok := val.(float64)
			if !ok || x < 0 || x != float64(uint64(x)) {
				return fmt.Errorf("field %s wants a non-negative integer, got %v", name, val)
			}
			f.SetUint(uint64(x))
		case reflect.Bool:
			x, ok := val.(bool)
			if !ok {
				return fmt.Errorf("field %s wants a bool, got %T", name, val)
			}
			f.SetBool(x)
		case reflect.String:
			x, ok := val.(string)
			if !ok {
				return fmt.Errorf("field %s wants a string, got %T", name, val)
			}
			f.SetString(x)
		default:
			return fmt.Errorf("field %s has unsupported kind %s", name, f.Kind())
		}
	}
	return nil
}
