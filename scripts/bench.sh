#!/usr/bin/env bash
# Benchmark-regression harness: runs the Primitive micro-benchmarks with
# allocation stats, writes the raw `go test -json` stream to an output file,
# and derives a benchstat-compatible text file next to it, so successive PRs
# (and the CI bench gate) can diff ns/op and allocs/op. The default pattern
# covers the energy-path benchmarks too (PrimitiveAlgorithm1RunEnergy,
# PrimitiveEnergyRound262144), so the enabled-model cost is tracked next to
# the disabled-model hot path it must not perturb. Usage:
#
#   scripts/bench.sh                         # count=5, all Primitive benchmarks
#   COUNT=1 scripts/bench.sh Decision        # quick smoke of a subset
#   scripts/bench.sh -o /tmp/BENCH_pr.json   # deterministic artifact name (CI)
#   BENCH_FILTER=full COUNT=1 scripts/bench.sh  # include planet-scale runs
#
# BENCH_FILTER selects the tier: "short" (the default) passes -short so the
# planet-scale benchmarks (BenchmarkPrimitiveAlgorithm1Run100M) skip
# themselves and can never time out the PR bench gate; "full" runs
# everything — the nightly leg and the committed BENCH trajectory use it.
#
# The JSON stream goes to OUT (default BENCH_<date>.json in the repo root) and
# the benchmark lines to ${OUT%.json}.txt. Relative -o paths are resolved
# against the bench root. BENCH_ROOT overrides the tree to benchmark (the CI
# gate points it at a merge-base worktree); it defaults to this repo.
#
# Exits with go test's status: a benchmark that fails to build, crashes, or
# fails mid-run fails the harness — the stream is written directly to the
# output file, never through a pipeline that could swallow the status.
set -euo pipefail

OUT=""
while getopts "o:h" opt; do
  case $opt in
    o) OUT="$OPTARG" ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "usage: scripts/bench.sh [-o out.json] [pattern]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

COUNT="${COUNT:-5}"
PATTERN="${1:-Primitive}"
BENCH_FILTER="${BENCH_FILTER:-short}"
case "${BENCH_FILTER}" in
  short) TIER_FLAGS=("-short") ;;
  full)  TIER_FLAGS=("-timeout" "120m") ;;  # planet-scale runs take minutes each
  *) echo "bench.sh: BENCH_FILTER must be \"short\" or \"full\", got \"${BENCH_FILTER}\"" >&2; exit 2 ;;
esac

cd "${BENCH_ROOT:-$(dirname "$0")/..}"
if [[ -z "${OUT}" ]]; then
  OUT="BENCH_$(date +%Y%m%d).json"
fi
TXT="${OUT%.json}.txt"

# Machine metadata: GOMAXPROCS, NumCPU, and the measured per-edge kernel
# costs, so trajectory points recorded on different containers are
# comparable. The probe runs in the benched tree (BENCH_ROOT may predate
# -calibrate, so tolerate failure).
CAL_JSON="$(go run ./cmd/experiments -calibrate 2>/dev/null | tr -d '\n' | tr -s ' ' || true)"

echo "running go test -bench=${PATTERN} -benchmem -count=${COUNT} (tier: ${BENCH_FILTER}) -> ${OUT}" >&2
status=0
go test -run '^$' ${TIER_FLAGS[@]+"${TIER_FLAGS[@]}"} -bench="${PATTERN}" -benchmem -count="${COUNT}" \
  -json . > "${OUT}" || status=$?

# Stamp the machine metadata into the JSON stream as one extra line (the
# Action marks it as harness metadata, not a go test event).
if [[ -n "${CAL_JSON}" ]]; then
  printf '{"Action":"bench-meta","Calibration":%s}\n' "${CAL_JSON}" >> "${OUT}"
fi

# Benchstat-compatible text form: the calibration context as `key: value`
# configuration lines (benchstat groups results by them), then the benchmark
# result lines plus the goos/goarch/pkg/cpu context header.
python3 - "${OUT}" > "${TXT}" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines(keepends=True)
for line in lines:
    try:
        ev = json.loads(line)
    except ValueError:
        continue
    cal = ev.get("Calibration")
    if ev.get("Action") == "bench-meta" and cal:
        sys.stdout.write("gomaxprocs: %s\n" % cal.get("GoMaxProcs", ""))
        sys.stdout.write("numcpu: %s\n" % cal.get("NumCPU", ""))
for line in lines:
    try:
        ev = json.loads(line)
    except ValueError:
        continue
    out = ev.get("Output", "")
    if out.startswith(("Benchmark", "goos:", "goarch:", "pkg:", "cpu:")) or "ns/op" in out:
        sys.stdout.write(out)
EOF
cat "${TXT}"

if [[ ${status} -ne 0 ]]; then
  echo "bench.sh: go test exited with status ${status}" >&2
  exit "${status}"
fi
echo "wrote ${OUT} and ${TXT}" >&2
