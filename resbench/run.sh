#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash resbench/run.sh --workload deep-chain --seed 1 --seconds 20 --trace 0
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./resbench/main.exe >&2
exec ./_build/default/resbench/main.exe "$@"
