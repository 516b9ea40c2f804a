#!/usr/bin/env bash
# Builds the conference benchmark from the checkout it lives in and runs it.
#
#   bash confbench/run.sh --workload call --seed 1 --seconds 40 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build at the
# checkout root. The benchmark module replaces the livo module with the
# checkout's root, so the build fails, and nothing runs, when only the
# benchmark's own files are present.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/confbench" && go build -o "$out/confbench" .)
exec "$out/confbench" "$@"
