#!/usr/bin/env bash
# Build everest_bench from source, then run it with the given arguments.
#
#   bash everest_bench/run.sh --workload serve-peak --seed 11 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  Outside a checkout of the repository (no
# dune-project or lib/ next to this directory) it exits 2 without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "everest_bench: not inside a checkout of the repository; nothing to build" >&2
  exit 2
fi
# dune's shared cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --display quiet ./everest_bench/everest_bench.exe 1>&2
exec ./_build/default/everest_bench/everest_bench.exe "$@"
