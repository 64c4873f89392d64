#!/usr/bin/env bash
# Builds the hierdet benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload bulk-1023 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# span dumps all live under .bench_build/ (or $CARGO_TARGET_DIR when set),
# so nothing is written outside the checkout. Without the hierdet module
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the build directory too.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/go-config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
