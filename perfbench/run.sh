#!/bin/sh
# Build the library, the symor CLI and the benchmark from this checkout,
# then run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
dune build --root . --profile release --cache=disabled \
  ./perfbench/bench.exe ./bin/symor.exe 1>&2
exec ./_build/default/perfbench/bench.exe --symor ./_build/default/bin/symor.exe "$@"
