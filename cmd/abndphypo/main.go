// Command abndphypo runs a declarative hypothesis campaign: a JSON spec
// (config grid × seeds × policies × load levels) expands into simulation
// runs through the bench harness's crash-guarded executor, aggregates each cell
// into mean ± 95% CI, extracts the Pareto frontier over the declared
// metric pair, and writes a FINDINGS report with a confirmed / refuted /
// inconclusive verdict gated on the declared minimum effect size.
//
// Usage:
//
//	abndphypo -spec examples/hypotheses/h1_hybrid_alpha.json -out findings/
//	abndphypo -spec spec.json -quick -j 8     # shrunken workloads, 8 workers
//	abndphypo -spec spec.json -check          # audit every run
//	abndphypo -policies                       # list the scheduler policies
//
// The report is a pure function of the spec: rerunning an identical spec
// produces byte-identical FINDINGS.md and findings.json. See
// docs/HYPOTHESES.md for the spec grammar and verdict semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"abndp/internal/bench"
	"abndp/internal/hypo"
	"abndp/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams, returning the exit
// code: 2 for a usage error (a bad flag, no -spec, a negative -j), 1 for a
// spec or campaign that fails, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abndphypo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "path to the campaign spec JSON (required)")
		outDir   = fs.String("out", "findings", "directory for FINDINGS.md and findings.json (created; files are prefixed with the spec name)")
		quick    = fs.Bool("quick", false, "shrink workload defaults for a fast smoke run (explicit spec sizes still win)")
		jobs     = fs.Int("j", 0, "worker goroutines for simulation runs (0 = GOMAXPROCS)")
		chk      = fs.Bool("check", false, "audit every run (invariant checker armed)")
		policies = fs.Bool("policies", false, "list the scheduler policies and exit")
		quiet    = fs.Bool("q", false, "suppress the report on stdout (files are still written)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "abndphypo:", err)
		return 1
	}

	if *policies {
		fmt.Fprintln(stdout, "scheduler policies:")
		fmt.Fprintln(stdout, sched.Describe())
		return 0
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "abndphypo: -spec is required (or -policies)")
		fs.Usage()
		return 2
	}
	if err := bench.ValidateWorkers(*jobs); err != nil {
		fmt.Fprintln(stderr, "abndphypo:", err)
		return 2
	}

	spec, err := hypo.LoadFile(*specPath)
	if err != nil {
		return fail(err)
	}

	r := bench.NewRunner(io.Discard)
	r.SetQuick(*quick)
	r.SetWorkers(*jobs)

	out, err := spec.Run(context.Background(), r, *chk)
	if err != nil {
		return fail(err)
	}

	md := hypo.RenderFindings(out)
	js, err := hypo.RenderJSON(out)
	if err != nil {
		return fail(fmt.Errorf("render json: %w", err))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	mdPath := filepath.Join(*outDir, spec.Name+"_FINDINGS.md")
	jsPath := filepath.Join(*outDir, spec.Name+"_findings.json")
	if err := os.WriteFile(mdPath, md, 0o644); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(jsPath, js, 0o644); err != nil {
		return fail(err)
	}

	if !*quiet {
		stdout.Write(md)
	}
	status := "no verdict declared"
	if out.Verdict != nil {
		status = out.Verdict.Status
	}
	fmt.Fprintf(stderr, "abndphypo: %s: %s (%d runs) -> %s, %s\n", spec.Name, status, out.Runs, mdPath, jsPath)
	return 0
}
