#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-campaign --seed 3 --seconds 55 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's telemetry and config
# files under .bench_build/ as well; TMPDIR holds the traced samples'
# CPU profiles.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
unset GOMAXPROCS # run at GOMAXPROCS = nproc
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
