// Command abndpbench regenerates the paper's evaluation: every table and
// figure of §7, printed as text tables of the same normalized metrics.
//
// Usage:
//
//	abndpbench                 # the full suite (Tables 1-2, Figures 2-18)
//	abndpbench -exp fig6,fig8  # selected experiments
//	abndpbench -quick          # shrunken workloads (smoke test)
//	abndpbench -j 8            # simulate on 8 worker goroutines
//	abndpbench -j 1            # one run at a time (same output, slower)
//	abndpbench -benchjson f    # write the harness counters to f
//	abndpbench -check          # audit every run (invariants + dual-run hash)
//	abndpbench -remote URL     # render on a running abndpserve instead (with -exp only)
//
// Simulation runs are planned up front and executed on a worker pool
// (GOMAXPROCS-wide by default); each run stays single-goroutine, so the
// tables are byte-identical at any -j. Every run shares one checkpoint
// store of placement cost vectors and one workload-input cache
// (docs/PERF.md); both leave the tables byte-identical.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"abndp/client"
	"abndp/internal/bench"
	"abndp/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams. It returns the exit
// code instead of calling os.Exit, so the deferred CPU-profile stop runs on
// a failing sweep too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abndpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps   = fs.String("exp", "all", "comma-separated experiments (tab1 tab2 fig2 fig6..fig18, ablrepl ablprobe ablhint abltopo ablsteal ablwindow, resilience) or 'all'")
		quick  = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		svg    = fs.String("svg", "", "also render the figures as SVG files into this directory")
		jobs   = fs.Int("j", 0, "worker goroutines for simulation runs (0 = GOMAXPROCS, 1 = one run at a time)")
		bjson  = fs.String("benchjson", "", "write the harness counters (runs, engine events, cache counters, failures, audit outcome, memory footprint) to this JSON file")
		prog   = fs.Bool("progress", false, "report per-experiment and per-run progress to stderr")
		srv    = fs.String("pprof", "", "serve pprof and the run counters (/metrics, /debug/vars) over debug HTTP on this address (e.g. :6060)")
		cpup   = fs.String("cpuprofile", "", "write a CPU profile of the harness to this file")
		memp   = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		rdl    = fs.Duration("rundeadline", 0, "per-run wall-clock deadline; a run past it is recorded as hung and skipped (0 = the 10m default, negative disables)")
		chk    = fs.Bool("check", false, "audit every run: invariant checker armed plus a dual-run determinism hash (roughly doubles simulation time; violations print and exit non-zero)")
		remote = fs.String("remote", "", "fetch the experiments from a running abndpserve at this base URL (e.g. http://localhost:8080) instead of simulating locally")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "abndpbench:", err)
		return 1
	}

	// The service renders with its own settings, so with -remote any flag
	// but -exp would be dropped: refuse it as a usage error instead.
	if *remote != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "remote" && f.Name != "exp" {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			fmt.Fprintf(stderr, "abndpbench: %s cannot be used with -remote, which takes only -exp\n", strings.Join(local, ", "))
			return 2
		}
		return runRemote(*remote, *exps, stdout, stderr)
	}

	// Validate the worker count before doing any work: a negative -j is a
	// 2-exit usage error, not a silent clamp (the same rule abndpserve
	// applies).
	if err := bench.ValidateWorkers(*jobs); err != nil {
		fmt.Fprintln(stderr, "abndpbench:", err)
		return 2
	}

	r := bench.NewRunner(stdout)
	r.SetQuick(*quick)
	if *prog {
		r.SetProgress(stderr)
	}
	r.SetWorkers(*jobs)
	if *rdl != 0 {
		r.SetRunDeadline(*rdl)
	}
	r.SetCheck(*chk)

	if *srv != "" {
		addr, err := obs.StartDebugServer(*srv, r.Registry())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "abndpbench: debug server at http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	}
	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	names := experimentNames(*exps)
	if names == nil {
		r.RunAll()
	}
	for _, e := range names {
		if err := r.Run(e); err != nil {
			return fail(err)
		}
	}
	if *svg != "" {
		files, err := r.RenderSVGs(*svg, names...)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "abndpbench: wrote %d SVG figures to %s\n", len(files), *svg)
	}
	if *bjson != "" {
		if err := r.Metrics().WriteJSON(*bjson); err != nil {
			return fail(err)
		}
	}
	if *memp != "" {
		f, err := os.Create(*memp)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	m := r.Metrics()
	fmt.Fprintf(stdout, "\ncompleted in %.1fs: %d runs, %.3g engine events\n",
		time.Since(start).Seconds(), m.Runs, float64(m.EventsTotal))
	fmt.Fprintf(stdout, "checkpoint store: %d hits, %d misses, %d inserts, %d shards, %.1f MiB\n",
		m.Checkpoint.Hits, m.Checkpoint.Misses, m.Checkpoint.Inserts,
		m.Checkpoint.Shards, float64(m.Checkpoint.Bytes)/(1<<20))

	exit := 0

	// Crash-isolated runs that panicked or hung: the sweep above still
	// rendered (their rows hold placeholders), but the harness exits
	// non-zero so CI and scripts notice.
	if fails := m.Failures; len(fails) > 0 {
		fmt.Fprintf(stderr, "\nabndpbench: %d run(s) FAILED (rows hold placeholder values):\n", len(fails))
		for _, f := range fails {
			kind := "panic"
			if f.Hung {
				kind = "hung"
			}
			fmt.Fprintf(stderr, "  [%s] %s: %s\n", kind, f.Key, f.Err)
		}
		exit = 1
	}

	// Invariant-audit verdict (-check): the violations are also in the
	// metrics JSON when -benchjson was given.
	if *chk {
		if vs := m.CheckViolations; len(vs) > 0 {
			fmt.Fprintf(stderr, "\nabndpbench: audit FAILED: %d violation(s) over %d runs (%d invariant evaluations):\n",
				len(vs), m.CheckedRuns, m.CheckEvals)
			for _, v := range vs {
				fmt.Fprintf(stderr, "  %s: %s\n", v.Key, v.Violation)
			}
			exit = 1
		} else {
			fmt.Fprintf(stdout, "audit PASSED: %d runs, %d invariant evaluations, 0 violations\n", m.CheckedRuns, m.CheckEvals)
		}
	}
	return exit
}

// experimentNames splits the -exp list; "all" gives nil.
func experimentNames(exps string) []string {
	if exps == "all" {
		return nil
	}
	var names []string
	for _, e := range strings.Split(exps, ",") {
		names = append(names, strings.TrimSpace(e))
	}
	return names
}

// runRemote renders the requested experiments on a running abndpserve
// instance instead of simulating locally: the service's table memo pays
// for each run once across every client.
func runRemote(baseURL, exps string, stdout, stderr io.Writer) int {
	names := experimentNames(exps)
	if names == nil {
		names = append(names, bench.Experiments...)
		names = append(names, bench.AblationExperiments...)
		names = append(names, bench.ResilienceExperiments...)
	}
	c := client.New(baseURL)
	ctx := context.Background()
	if h, err := c.Health(ctx); err != nil {
		fmt.Fprintf(stderr, "abndpbench: %s not healthy: %v\n", baseURL, err)
		return 1
	} else {
		fmt.Fprintf(stderr, "abndpbench: rendering %d experiment(s) on %s (%d workers, %d runs executed)\n",
			len(names), baseURL, h.Workers, h.Runs)
	}
	start := time.Now()
	for _, name := range names {
		out, err := c.Experiment(ctx, name)
		if err != nil {
			fmt.Fprintln(stderr, "abndpbench:", err)
			return 1
		}
		fmt.Fprint(stdout, out)
	}
	fmt.Fprintf(stdout, "\ncompleted in %.1fs\n", time.Since(start).Seconds())
	return 0
}
