#!/usr/bin/env bash
# Builds the benchmark and the commit's cmd/sbd-serve into .bench_build/bin
# and runs the benchmark with the arguments given. This is the "command"
# of BENCHMARK.json; run it from the root of the repository:
#
#   bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh -aa
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# Keep the Go build cache wherever the user has it; without a home
# directory to put it in, keep it with the other build outputs.
if ! go env GOCACHE >/dev/null 2>&1 || [ -z "$(go env GOCACHE)" ]; then
  export GOCACHE="$root/.bench_build/gocache"
fi
mkdir -p .bench_build/bin
(cd benchmark && go build -o ../.bench_build/bin/benchmark . &&
  go build -o ../.bench_build/bin/sbd-serve repro/cmd/sbd-serve) >&2
exec .bench_build/bin/benchmark -serve-bin .bench_build/bin/sbd-serve -out benchmark/out "$@"
