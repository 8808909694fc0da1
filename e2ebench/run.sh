#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload library-loaded --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and per-run scratch stay under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
