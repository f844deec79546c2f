package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Plan from the command-line fault spec grammar: a
// semicolon-separated list of clauses, each injecting one fault (or
// setting one budget):
//
//	dram:PROB[:RETRIES]              transient DRAM errors
//	slow:UNITS:CORE[:CHAN][@FROM[-UNTIL]]   straggler unit(s)
//	kill:UNITS@CYCLE                 unit failure
//	link:STACK:DIR@CYCLE             mesh link failure (DIR: +x -x +y -y)
//	retry:N                          per-task re-execution budget
//	seed:N                           DRAM-error stream seed
//
// UNITS is a single unit index or an inclusive range "a-b", so four
// stragglers at 4x is "slow:8-11:4" and two mid-run unit deaths are
// "kill:5@40000;kill:70@40000". The returned plan is not yet validated
// against a machine size; config.Validate does that.
func Parse(spec string) (Plan, error) {
	var p Plan
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Plan{}, fmt.Errorf("fault: clause %q has no arguments", clause)
		}
		var err error
		switch kind {
		case "dram":
			err = p.parseDRAM(rest)
		case "slow":
			err = p.parseSlow(rest)
		case "kill":
			err = p.parseKill(rest)
		case "link":
			err = p.parseLink(rest)
		case "retry":
			p.TaskRetryMax, err = parseInt(rest)
		case "seed":
			p.Seed, err = strconv.ParseInt(rest, 10, 64)
		default:
			err = fmt.Errorf("unknown fault class %q (want dram, slow, kill, link, retry, or seed)", kind)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: clause %q: %v", clause, err)
		}
	}
	return p, nil
}

// MustParse is Parse for compiled-in specs; it panics on error.
func MustParse(spec string) Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Plan) parseDRAM(rest string) error {
	parts := strings.Split(rest, ":")
	if len(parts) > 2 {
		return fmt.Errorf("want PROB[:RETRIES]")
	}
	prob, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return err
	}
	if prob == 0 {
		prob = 0 // "-0" disables the class as "0" does, and keys the same
	}
	p.DRAMErrProb = prob
	if len(parts) == 2 {
		if p.DRAMRetryMax, err = parseInt(parts[1]); err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) parseSlow(rest string) error {
	body, window, hasWindow := strings.Cut(rest, "@")
	parts := strings.Split(body, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want UNITS:CORE[:CHAN][@FROM[-UNTIL]]")
	}
	lo, hi, err := parseUnitRange(parts[0])
	if err != nil {
		return err
	}
	core, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return err
	}
	chanF := 1.0
	if len(parts) == 3 {
		if chanF, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return err
		}
	}
	var from, until int64
	if hasWindow {
		fs, us, hasUntil := strings.Cut(window, "-")
		if from, err = strconv.ParseInt(fs, 10, 64); err != nil {
			return err
		}
		if hasUntil {
			if until, err = strconv.ParseInt(us, 10, 64); err != nil {
				return err
			}
		}
	}
	for u := lo; u <= hi; u++ {
		p.Stragglers = append(p.Stragglers, Straggler{
			Unit: u, CoreFactor: core, ChanFactor: chanF, From: from, Until: until,
		})
	}
	return nil
}

func (p *Plan) parseKill(rest string) error {
	units, at, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("want UNITS@CYCLE")
	}
	lo, hi, err := parseUnitRange(units)
	if err != nil {
		return err
	}
	cycle, err := strconv.ParseInt(at, 10, 64)
	if err != nil {
		return err
	}
	for u := lo; u <= hi; u++ {
		p.UnitKills = append(p.UnitKills, UnitKill{Unit: u, Cycle: cycle})
	}
	return nil
}

func (p *Plan) parseLink(rest string) error {
	body, at, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("want STACK:DIR@CYCLE")
	}
	stackS, dirS, ok := strings.Cut(body, ":")
	if !ok {
		return fmt.Errorf("want STACK:DIR@CYCLE")
	}
	stack, err := parseInt(stackS)
	if err != nil {
		return err
	}
	dir, err := parseDir(dirS)
	if err != nil {
		return err
	}
	cycle, err := strconv.ParseInt(at, 10, 64)
	if err != nil {
		return err
	}
	p.LinkKills = append(p.LinkKills, LinkKill{Stack: stack, Dir: dir, Cycle: cycle})
	return nil
}

// maxRange bounds the units one "a-b" range names. Parse expands a range
// into one entry per unit before any machine validates the plan, so an
// unbounded "kill:0-2000000000@1" from a request would allocate gigabytes
// here. No valid plan needs a wider range: a machine has at most
// config.MaxUnits (1024) units.
const maxRange = 1024

// parseUnitRange parses "7" or "4-11" (inclusive), naming at most maxRange
// units.
func parseUnitRange(s string) (lo, hi int, err error) {
	loS, hiS, isRange := strings.Cut(s, "-")
	if lo, err = parseInt(loS); err != nil {
		return 0, 0, err
	}
	hi = lo
	if isRange {
		if hi, err = parseInt(hiS); err != nil {
			return 0, 0, err
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("unit range %q is backwards", s)
	}
	if hi-lo >= maxRange { // lo >= 0: a leading '-' is the range separator
		return 0, 0, fmt.Errorf("unit range %q names more than %d units", s, maxRange)
	}
	return lo, hi, nil
}

func parseDir(s string) (int, error) {
	switch strings.ToLower(s) {
	case "+x", "e":
		return DirPosX, nil
	case "-x", "w":
		return DirNegX, nil
	case "+y", "s":
		return DirPosY, nil
	case "-y", "n":
		return DirNegY, nil
	}
	return 0, fmt.Errorf("bad link direction %q (want +x, -x, +y, or -y)", s)
}

func parseInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// String renders the plan back in the spec grammar (one clause per fault;
// ranges are not re-compressed). An empty plan renders as "". The dram
// clause appears when either of its fields is set, so a retry budget
// without an error rate ("dram:0:1") survives the round trip.
func (p *Plan) String() string {
	var parts []string
	if p.DRAMErrProb != 0 || p.DRAMRetryMax != 0 {
		c := "dram:" + strconv.FormatFloat(p.DRAMErrProb, 'g', -1, 64)
		if p.DRAMRetryMax > 0 {
			c += ":" + strconv.Itoa(p.DRAMRetryMax)
		}
		parts = append(parts, c)
	}
	for _, st := range p.Stragglers {
		c := fmt.Sprintf("slow:%d:%g", st.Unit, st.CoreFactor)
		if st.ChanFactor != 1 {
			c += ":" + strconv.FormatFloat(st.ChanFactor, 'g', -1, 64)
		}
		if st.From != 0 || st.Until != 0 {
			c += "@" + strconv.FormatInt(st.From, 10)
			if st.Until != 0 {
				c += "-" + strconv.FormatInt(st.Until, 10)
			}
		}
		parts = append(parts, c)
	}
	for _, k := range p.UnitKills {
		parts = append(parts, fmt.Sprintf("kill:%d@%d", k.Unit, k.Cycle))
	}
	for _, k := range p.LinkKills {
		parts = append(parts, fmt.Sprintf("link:%d:%s@%d", k.Stack, DirName(k.Dir), k.Cycle))
	}
	if p.TaskRetryMax > 0 {
		parts = append(parts, "retry:"+strconv.Itoa(p.TaskRetryMax))
	}
	if p.Seed != 0 {
		parts = append(parts, "seed:"+strconv.FormatInt(p.Seed, 10))
	}
	return strings.Join(parts, ";")
}
