#!/bin/sh
# Builds the benchmark from source in the checkout it is run from, then
# runs it:
#
#   sh perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of the checkout.  Build messages go to standard
# error; the last line of standard output is the JSON result.  The dune
# cache is off so that nothing is written outside the checkout.
set -e
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
