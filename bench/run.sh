#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                       # every workload, one child each
#
# The build cache, temporary files, the go command's config and telemetry,
# and the binary live in .bench_build/ at the root, and the go command may
# not download anything, switch toolchains or call git, so a run reads and
# writes only inside the checkout. A traced run also needs `go tool pprof`.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"
go -C bench build -o "$out/hilos-bench-run" .
exec "$out/hilos-bench-run" "$@"
