#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash rfbench/run.sh --workload postlayout|rf|sweep --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -u
cd "$(dirname "$0")/.." || exit 1
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# build inside the checkout only: no shared cache outside it
export DUNE_CACHE=disabled
dune build --root . ./rfbench/main.exe 1>&2 || exit 1
exec ./_build/default/rfbench/main.exe "$@"
