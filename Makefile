# Convenience targets for the ABNDP reproduction.

GO ?= go

.PHONY: all build test vet audit bench experiments figures hypo serve proxy serve-test clean

all: vet test build

build:
	$(GO) build ./...

vet:
	gofmt -l . && $(GO) vet ./...

test:
	$(GO) test ./...

# Audit the simulator: the invariant/metamorphic test suites, then a quick
# design sweep (every workload under every Table 2 design) with the runtime
# checker armed and dual-run determinism hashes compared on every cell.
audit:
	$(GO) test -run 'TestChecker|TestAudit|TestCheckMode|TestResultHash|TestEmptyFaultLayer' ./...
	$(GO) run ./cmd/abndpbench -quick -exp fig6 -check >/dev/null

# Micro-benchmarks + per-figure harness smoke benchmarks, then one run of
# each workload of the repository benchmark (BENCHMARK.json, perfbench/),
# which prints its end-to-end metrics as JSON. To gate a change against
# its parent, collect such output from both commits and run
#   go run ./cmd/abndpperf -base base.jsonl -head head.jsonl
# (docs/OBSERVABILITY.md, "The performance gate").
bench:
	$(GO) test -bench=. -benchmem ./...
	bash perfbench/run.sh --workload matrix-quick --seed 1 --seconds 55 --trace 0
	bash perfbench/run.sh --workload serve-campaign --seed 1 --seconds 55 --trace 0

# The HTTP simulation service (docs/SERVING.md): submit runs with
# curl -X POST localhost:8080/v1/runs -d '{"app":"pr","design":"O"}'.
serve:
	$(GO) run ./cmd/abndpserve

# The fleet coordinator (docs/SERVING.md, "Serving fleets"): point it at
# running abndpserve backends, e.g.
#   make proxy PROXY_BACKENDS=http://127.0.0.1:8081,http://127.0.0.1:8082
PROXY_BACKENDS ?= http://127.0.0.1:8081,http://127.0.0.1:8082
proxy:
	$(GO) run ./cmd/abndpproxy -backends $(PROXY_BACKENDS)

# The serving layer's concurrency tests (dedup, backpressure, deadlines,
# drain, fleet routing/failover) plus the harness regression tests they
# lean on, race-enabled.
serve-test:
	$(GO) test -race ./internal/serve/ ./internal/fleet/ ./client/
	$(GO) test -race -run 'TestMemo|TestRunOne|TestValidateWorkers|TestTimeline' ./internal/bench/ ./internal/stats/

# Regenerate every table of the paper into docs/abndpbench_output.txt: one
# full run on one worker, without the two trailing summary lines (wall time
# and checkpoint-store counters), which vary between runs. CI's tables job
# diffs a full -j 2 run against the file.
experiments:
	$(GO) run ./cmd/abndpbench -j 1 | head -n -2 > docs/abndpbench_output.txt

# Same, plus SVG figure files.
figures:
	$(GO) run ./cmd/abndpbench -j 1 -svg docs/figures | head -n -2 > docs/abndpbench_output.txt

# Run the committed example hypothesis campaign (docs/HYPOTHESES.md):
# expands the spec into a config grid x seeds x load levels, aggregates
# mean +/- 95% CI per cell, and writes a FINDINGS report with a
# confirmed/refuted/inconclusive verdict into findings/.
HYPO_SPEC ?= examples/hypotheses/h1_hybrid_alpha.json
hypo:
	$(GO) run ./cmd/abndphypo -spec $(HYPO_SPEC) -quick

clean:
	rm -f test_output.txt bench_output.txt
