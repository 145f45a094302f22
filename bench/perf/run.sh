#!/bin/sh
# Builds the time-to-break benchmark together with the CLI and the trace
# validator it drives, then runs it with the given arguments.  Run it
# from the root of a logiclock checkout, e.g.
#   bash bench/perf/run.sh --workload table1-sarlock --seed 1 --seconds 25 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/perf/run.sh: run from the root of a logiclock checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
dune build --root . --display quiet --cache=disabled \
  bench/perf/perf.exe bin/logiclock_cli.exe bin/trace_check.exe
exec ./_build/default/bench/perf/perf.exe "$@"
