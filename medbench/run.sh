#!/usr/bin/env bash
# Build the mediator benchmark from source and run it.
#
#   bash medbench/run.sh --workload s5-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build output stays in the root's
# _build directory (dune's shared cache is not used); every argument is
# passed on to the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./medbench/main.exe 1>&2
exec ./_build/default/medbench/main.exe "$@"
