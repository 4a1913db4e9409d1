#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root; the arguments go to the benchmark binary:
#
#   bash e2ebench/run.sh --workload job-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository: the Go build cache, module cache, config (telemetry)
# and temporary files, the binary, and the per-run work directory
# (checkpoints, artifacts, spans).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" -dir "$out" "$@"
