#!/bin/sh
# Runs every workload once per seed, untraced, and writes one JSON line per
# run: {"workload": ..., "seed": ..., "result": <the run's result line>}.
# Two such sets, compared with `sh bench/run.sh --compare A B`, show whether
# the end-to-end metrics agree within their bounds.
#
#   sh bench/sets.sh OUT.jsonl [first-seed [count [seconds]]]
#   sh bench/sets.sh --pair PARENT_ROOT PARENT.jsonl OUT.jsonl [first-seed [count [seconds]]]
#
# Run it from the repository root. Seeds are first-seed .. first-seed+count-1
# (default 1..10); each run measures for `seconds` (default 10).
#
# With --pair, PARENT_ROOT is a second checkout that holds the benchmark,
# such as one of the parent commit made with `git archive`. Every workload
# and seed then runs in both checkouts back to back, and which of the two
# runs first alternates, so that a change in the host's load lands on both
# sets alike. The parent's runs go to PARENT.jsonl, this checkout's to
# OUT.jsonl; compare them with `--compare PARENT.jsonl OUT.jsonl`.
set -eu
parent=
if [ "${1:-}" = --pair ]; then
	parent=$2
	parent_out=$3
	shift 3
	: >"$parent_out"
fi
out=$1
first=${2:-1}
count=${3:-10}
seconds=${4:-10}
here=$(pwd)
workloads="campaign-reduced alg1-gnp alg3-rgg-energy service-drain"
: >"$out"

# one ROOT OUT WORKLOAD SEED runs the workload in the checkout at ROOT and
# appends its result to OUT.
one() {
	line=$(cd "$1" && sh bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
	case $line in
	'{"correct":true,'*) ;;
	*)
		echo "sets.sh: $1: $3 seed $4 failed: $line" >&2
		exit 1
		;;
	esac
	printf '{"workload":"%s","seed":%s,"result":%s}\n' "$3" "$4" "$line" >>"$2"
	echo "$1: $3 seed $4: $line" >&2
}

i=0
runs=0
while [ "$i" -lt "$count" ]; do
	seed=$((first + i))
	for w in $workloads; do
		if [ -z "$parent" ]; then
			one "$here" "$out" "$w" "$seed"
		elif [ $((runs % 2)) -eq 0 ]; then
			one "$parent" "$parent_out" "$w" "$seed"
			one "$here" "$out" "$w" "$seed"
		else
			one "$here" "$out" "$w" "$seed"
			one "$parent" "$parent_out" "$w" "$seed"
		fi
		runs=$((runs + 1))
	done
	i=$((i + 1))
done
