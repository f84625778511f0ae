#!/usr/bin/env bash
# Build the LBRM benchmark from source, then run it with the given
# arguments (see lbrm_bench/README.md):
#
#   bash lbrm_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works from the repository root.  The build goes
# to .bench_build/ (release profile, no shared dune cache) and the
# benchmark's temporary archive files to .bench_build/tmp/.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build --root . --build-dir .bench_build --profile release \
  --cache disabled --display quiet ./lbrm_bench/lbrm_bench.exe 1>&2

exec ./.bench_build/default/lbrm_bench/lbrm_bench.exe "$@"
