// Command abndphypo runs a declarative hypothesis campaign: a JSON spec
// (config grid × seeds × policies × load levels) expands into simulation
// runs through the bench harness's memoized executor, aggregates each cell
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
	var (
		specPath = flag.String("spec", "", "path to the campaign spec JSON (required)")
		outDir   = flag.String("out", "findings", "directory for FINDINGS.md and findings.json (created; files are prefixed with the spec name)")
		quick    = flag.Bool("quick", false, "shrink workload defaults for a fast smoke run (explicit spec sizes still win)")
		jobs     = flag.Int("j", 0, "worker goroutines for simulation runs (0 = GOMAXPROCS)")
		chk      = flag.Bool("check", false, "audit every run (invariant checker armed)")
		policies = flag.Bool("policies", false, "list the scheduler policies and exit")
		quiet    = flag.Bool("q", false, "suppress the report on stdout (files are still written)")
	)
	flag.Parse()

	if *policies {
		fmt.Println("scheduler policies:")
		fmt.Println(sched.Describe())
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "abndphypo: -spec is required (or -policies)")
		flag.Usage()
		os.Exit(2)
	}
	if err := bench.ValidateWorkers(*jobs); err != nil {
		fatalf("%v", err)
	}

	spec, err := hypo.LoadFile(*specPath)
	if err != nil {
		fatalf("%v", err)
	}

	r := bench.NewRunner(io.Discard)
	r.SetQuick(*quick)
	r.SetWorkers(*jobs)

	out, err := spec.Run(context.Background(), r, *chk)
	if err != nil {
		fatalf("%v", err)
	}

	md := hypo.RenderFindings(out)
	js, err := hypo.RenderJSON(out)
	if err != nil {
		fatalf("render json: %v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	mdPath := filepath.Join(*outDir, spec.Name+"_FINDINGS.md")
	jsPath := filepath.Join(*outDir, spec.Name+"_findings.json")
	if err := os.WriteFile(mdPath, md, 0o644); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(jsPath, js, 0o644); err != nil {
		fatalf("%v", err)
	}

	if !*quiet {
		os.Stdout.Write(md)
	}
	status := "no verdict declared"
	if out.Verdict != nil {
		status = out.Verdict.Status
	}
	fmt.Fprintf(os.Stderr, "abndphypo: %s: %s (%d runs) -> %s, %s\n", spec.Name, status, out.Runs, mdPath, jsPath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "abndphypo: "+format+"\n", args...)
	os.Exit(1)
}
