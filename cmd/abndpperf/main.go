// Command abndpperf is the repository's performance gate. It compares the
// perfbench results of a change with those of its parent commit:
//
//	abndpperf -base base.jsonl -head head.jsonl
//
// Each input is the concatenated standard output of untraced perfbench
// runs (bash perfbench/run.sh --workload W --seed S --seconds T --trace 0),
// a context line naming the workload and then its result line. Per
// workload, each side's value of an end-to-end metric is its median over
// that side's runs. The gate exits 1 when the change is worse than the
// parent by more than the metric's bound in the working directory's
// BENCHMARK.json, in the metric's better direction, or when the change
// fails a larger share of its operations. It exits 2 when the inputs
// cannot be judged: a traced run, a result line with no context line
// before it, a workload one side did not run, or an unreadable file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams, so the gate's exit
// codes are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abndpperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "perfbench output of the parent commit")
	head := fs.String("head", "", "perfbench output of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: abndpperf -base base.jsonl -head head.jsonl")
		return 2
	}
	code, err := gate(*base, *head, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "abndpperf:", err)
		return 2
	}
	return code
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the worsening, as a fraction, that is a regression
}

// result is one perfbench result line.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// gate judges head against base and returns the exit code: 0 when no
// workload regressed, 1 when one did.
func gate(basePath, headPath string, out io.Writer) (int, error) {
	metrics, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	base, err := readRuns(basePath)
	if err != nil {
		return 0, err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return 0, err
	}
	var names []string
	for w := range head {
		names = append(names, w)
	}
	for w := range base {
		if head[w] == nil {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return 0, errors.New("no runs to compare")
	}
	sort.Strings(names)

	code := 0
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for _, w := range names {
		b, h := base[w], head[w]
		if len(b) == 0 || len(h) == 0 {
			return 0, fmt.Errorf("workload %s: %d parent runs, %d change runs; both sides must run it", w, len(b), len(h))
		}
		fmt.Fprintf(tw, "%s: medians of %d parent and %d change runs\n", w, len(b), len(h))
		fmt.Fprintln(tw, "  metric\tbetter\tbound\tparent\tchange\tworse by\tverdict")
		for _, m := range metrics {
			bv, bok := median(b, m.Name)
			hv, hok := median(h, m.Name)
			if !bok || !hok {
				return 0, fmt.Errorf("workload %s: a result line has no %s", w, m.Name)
			}
			worse := (hv - bv) / bv
			if m.Better == "higher" {
				worse = (bv - hv) / bv
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.0f%%\t%.4g\t%.4g\t%+.1f%%\t%s\n",
				m.Name, m.Better, m.Bound*100, bv, hv, worse*100, verdict)
		}
		bf, ba := failures(b)
		hf, ha := failures(h)
		verdict := "ok"
		if float64(hf)/float64(max(ha, 1)) > float64(bf)/float64(max(ba, 1)) {
			verdict, code = "REGRESSION", 1
		}
		fmt.Fprintf(tw, "  failed\t\t\t%d/%d\t%d/%d\t\t%s\n", bf, ba, hf, ha, verdict)
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	return code, nil
}

// loadMetrics reads the end-to-end metrics of a benchmark declaration.
func loadMetrics(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metrics", path)
	}
	for _, m := range decl.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s is better %q, not lower or higher", path, m.Name, m.Better)
		}
	}
	return decl.EndToEnd, nil
}

// readRuns reads one side's perfbench output and groups its result lines
// by the workload of the context line before each.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]result{}
	workload := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line struct {
			Context *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"context"`
			result
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		switch {
		case line.Context != nil && line.Context.Trace:
			return nil, fmt.Errorf("%s:%d: a traced run reports per-layer metrics; the gate reads untraced runs", path, n)
		case line.Context != nil:
			workload = line.Context.Workload
		case line.Metrics != nil && workload != "":
			runs[workload] = append(runs[workload], line.result)
			workload = ""
		default:
			return nil, fmt.Errorf("%s:%d: neither a context line nor the result line after one", path, n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// median is the middle value of metric name over runs (the mean of the
// middle two for an even count); ok is false when a run lacks the metric.
func median(runs []result, name string) (v float64, ok bool) {
	vs := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return 0, false
		}
		vs = append(vs, m.Value)
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 0 {
		return (vs[mid-1] + vs[mid]) / 2, true
	}
	return vs[mid], true
}

// failures sums the failed and attempted operations over runs.
func failures(runs []result) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}
