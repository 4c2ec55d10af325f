#!/usr/bin/env bash
# Allocation gate: parse a benchmark text file (the ${OUT%.json}.txt form
# written by scripts/bench.sh, i.e. `go test -bench -benchmem` result lines)
# and fail on allocation regressions:
#
#   - every per-round benchmark — BenchmarkPrimitive*Round* — must report
#     0 allocs/op. These benchmarks time individual simulated rounds over a
#     warm session, so any steady-state allocation in the round loop
#     (decision draw, delivery kernel, energy accounting, skip path) shows
#     up here and regresses the engine's allocation-free contract.
#   - named per-run benchmarks carry explicit small budgets (see BUDGETS in
#     the awk program): a complete run legitimately allocates its result,
#     but session storage must come from scratch reuse, so the budget is a
#     handful of allocations, not O(n).
#
#   scripts/alloc_gate.sh BENCH_pr.txt
#
# Run it on a full-harness result (default benchtime), not a -benchtime=1x
# smoke: per-run setup allocations only amortise to 0 allocs/op across many
# timed rounds.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/alloc_gate.sh BENCH.txt" >&2
  exit 2
fi

awk '
BEGIN {
  # Named per-run budgets. GossipRun allocates its GossipResult + PerNodeTx
  # per op (the session itself is parked in a radio.Scratch); measured 3
  # allocs/op, budget 8 for headroom.
  budget["BenchmarkPrimitiveGossipRun"] = 8
  # A geometric build on a warm graph.Scratch reuses its points, cell index
  # and row arrays, so its budget is 0: an allocation there is one that
  # every build makes.
  budget["BenchmarkPrimitiveRGGGeneration65536"] = 0
}
/^BenchmarkPrimitive/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (name ~ /^BenchmarkPrimitive[A-Za-z0-9]*Round/) limit = 0
  else if (name in budget) limit = budget[name]
  else next
  v = -1
  for (i = 2; i < NF; i++) {
    if ($(i + 1) == "allocs/op") { v = $i; break }
  }
  if (v < 0) next # no -benchmem column on this line
  seen[name] = 1
  lim[name] = limit
  if (v + 0 > worst[name]) worst[name] = v + 0
}
END {
  n = 0
  bad = 0
  for (name in seen) {
    n++
    status = "OK"
    if (worst[name] > lim[name]) { status = "FAIL"; bad++ }
    printf "%-52s %10d allocs/op (budget %d)   %s\n", name, worst[name], lim[name], status
  }
  if (n == 0) {
    print "alloc_gate: no gated Primitive benchmarks with allocs/op found" > "/dev/stderr"
    exit 2
  }
  if (bad > 0) {
    printf "alloc_gate: FAIL — %d benchmark(s) over their allocation budget\n", bad > "/dev/stderr"
    exit 1
  }
  print "alloc_gate: OK"
}' "$1"
