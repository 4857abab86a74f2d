#!/usr/bin/env bash
# Build the end-to-end benchmark from source (release profile, build
# directory .bench_build, no shared dune cache) and run one workload:
#
#   bash e2e/run.sh --workload fw-steady --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release ./e2e/e2e.exe 1>&2
exec ./.bench_build/default/e2e/e2e.exe "$@"
