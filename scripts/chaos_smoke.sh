#!/usr/bin/env bash
# Fault-injection smoke for the campaign service: a real campaignd process,
# two real campaignworker processes, one of which is chaos-killed while it
# holds a lease (it dies abruptly: no report, no more heartbeats). The
# daemon must detect the loss, requeue the point, and finish the campaign
# with zero holes — and the merged record stream must be byte-identical
# (modulo ordering) to an unsharded single-process `cmd/experiments` run of
# the same experiments and seed. This is the end-to-end proof that worker
# death cannot corrupt, duplicate, or perturb a single record.
#
#   scripts/chaos_smoke.sh [workdir]
#
# Everything (binaries, checkpoints, logs) lands in workdir (default: a
# fresh mktemp -d). Exits non-zero on any divergence; daemon and worker
# logs are printed on failure for post-mortem.
set -euo pipefail

EXPERIMENTS="F1,F2,E9"
SEED=777

work="${1:-$(mktemp -d)}"
mkdir -p "${work}"
echo "chaos smoke: working in ${work}"

cleanup() {
  # Best-effort teardown; the chaos worker is usually dead already.
  kill "${daemon_pid:-}" "${w1_pid:-}" "${w2_pid:-}" \
       "${daemon2_pid:-}" "${w3_pid:-}" "${w4_pid:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

die() {
  echo "chaos smoke: FAIL: $*" >&2
  for log in campaignd campaignd2 worker1 worker2 worker3 worker4; do
    [[ -f "${work}/${log}.log" ]] || continue
    echo "--- ${log} log ---" >&2; cat "${work}/${log}.log" >&2 || true
  done
  exit 1
}

echo "chaos smoke: building binaries"
go build -o "${work}/experiments" ./cmd/experiments
go build -o "${work}/campaignd" ./cmd/campaignd
go build -o "${work}/campaignworker" ./cmd/campaignworker
go build -o "${work}/campaignctl" ./cmd/campaignctl

echo "chaos smoke: computing single-process truth"
"${work}/experiments" -run "${EXPERIMENTS}" -seed "${SEED}" -format jsonl \
  -checkpoint "${work}/truth.jsonl" -out /dev/null 2>"${work}/truth.log" \
  || die "single-process truth run failed"

echo "chaos smoke: starting campaignd"
"${work}/campaignd" -addr 127.0.0.1:0 -addr-file "${work}/addr" \
  -data "${work}/data" -lease 5s -heartbeat-timeout 3s -sweep 250ms \
  2>"${work}/campaignd.log" &
daemon_pid=$!
for _ in $(seq 1 100); do
  [[ -s "${work}/addr" ]] && break
  kill -0 "${daemon_pid}" 2>/dev/null || die "campaignd died on startup"
  sleep 0.1
done
[[ -s "${work}/addr" ]] || die "campaignd never wrote its address"
daemon="http://$(cat "${work}/addr")"
echo "chaos smoke: daemon at ${daemon}"

echo "chaos smoke: submitting campaign"
"${work}/campaignctl" -daemon "${daemon}" submit -id smoke \
  -experiments "${EXPERIMENTS}" -seed "${SEED}" >"${work}/submit.json" \
  || die "submit failed"

# The victim runs ALONE first so the kill is deterministic — with a rival
# worker on a fast grid the queue can drain before the victim ever gets a
# lease, and the chaos trigger would never fire. Solo, it completes one
# point, acquires a second lease, and dies holding it — indistinguishable
# from SIGKILL mid-simulation.
echo "chaos smoke: starting victim worker"
"${work}/campaignworker" -daemon "${daemon}" -id victim -poll 100ms \
  -chaos.kill-after-points 1 2>"${work}/worker1.log" &
w1_pid=$!
for _ in $(seq 1 300); do
  kill -0 "${w1_pid}" 2>/dev/null || break
  sleep 0.1
done
kill -0 "${w1_pid}" 2>/dev/null && die "victim still alive after 30s, chaos never fired"
# The victim must have died of chaos (exit 3) — otherwise this run proved
# nothing about fault recovery.
set +e
wait "${w1_pid}"; w1_code=$?
set -e
[[ ${w1_code} -eq 3 ]] || die "victim exited ${w1_code}, want chaos exit 3"
echo "chaos smoke: victim died holding a lease"

# Worker 2 must absorb everything the victim dropped, requeued lease
# included, and finish the campaign with zero holes.
"${work}/campaignworker" -daemon "${daemon}" -id survivor -poll 100ms \
  2>"${work}/worker2.log" &
w2_pid=$!

echo "chaos smoke: waiting for completion"
if ! "${work}/campaignctl" -daemon "${daemon}" wait -timeout 5m -poll 1s smoke \
  2>"${work}/wait.log"; then
  code=$?
  [[ ${code} -eq 4 ]] && die "campaign completed DEGRADED (holes in the manifest)"
  die "campaignctl wait exited ${code}"
fi

grep -q "requeued" "${work}/campaignd.log" \
  || die "daemon never requeued the victim's abandoned lease"

echo "chaos smoke: fetching merged records"
"${work}/campaignctl" -daemon "${daemon}" records smoke >"${work}/merged.jsonl" \
  || die "records fetch failed"

sort "${work}/truth.jsonl" >"${work}/truth.sorted"
sort "${work}/merged.jsonl" >"${work}/merged.sorted"
diff -u "${work}/truth.sorted" "${work}/merged.sorted" \
  || die "merged records differ from the single-process run"

n=$(wc -l <"${work}/truth.jsonl")
echo "chaos smoke: PASS leg 1 — ${n} records identical across worker death"

# ---------------------------------------------------------------------------
# Leg 2: kill the DAEMON. A fresh campaignd (own -data/-state) runs a second
# campaign across two slow workers; mid-campaign — after at least two worker
# completions, with more in flight — the daemon takes SIGKILL. Restarted over
# the same address and directories, it must rebuild the campaign from its
# job log (state2/jobs.jsonl) and records, rerun the points that were in
# flight, pick the fleet back up (the workers are never restarted), and
# finish with records byte-identical to the same single-process truth.
# ---------------------------------------------------------------------------
kill "${w2_pid}" 2>/dev/null || true
kill "${daemon_pid}" 2>/dev/null || true
wait "${w2_pid}" "${daemon_pid}" 2>/dev/null || true

done_count() {
  "${work}/campaignctl" -daemon "${daemon2}" status smoke2 2>/dev/null \
    | tr -d ' ' | grep -o '"done":[0-9]*' | head -n1 | cut -d: -f2 || echo 0
}

echo "chaos smoke: leg 2 — starting campaignd (durable state)"
"${work}/campaignd" -addr 127.0.0.1:0 -addr-file "${work}/addr2" \
  -data "${work}/data2" -state "${work}/state2" \
  -lease 5s -heartbeat-timeout 3s -sweep 250ms \
  2>"${work}/campaignd2.log" &
daemon2_pid=$!
for _ in $(seq 1 100); do
  [[ -s "${work}/addr2" ]] && break
  kill -0 "${daemon2_pid}" 2>/dev/null || die "leg-2 campaignd died on startup"
  sleep 0.1
done
[[ -s "${work}/addr2" ]] || die "leg-2 campaignd never wrote its address"
addr2="$(cat "${work}/addr2")"
daemon2="http://${addr2}"
echo "chaos smoke: leg-2 daemon at ${daemon2}"

# Slow workers (300ms per point) keep the campaign running long enough to
# kill the daemon mid-flight with work genuinely in progress.
"${work}/campaignworker" -daemon "${daemon2}" -id slow-1 -poll 100ms \
  -chaos.latency 300ms 2>"${work}/worker3.log" &
w3_pid=$!
"${work}/campaignworker" -daemon "${daemon2}" -id slow-2 -poll 100ms \
  -chaos.latency 300ms 2>"${work}/worker4.log" &
w4_pid=$!

"${work}/campaignctl" -daemon "${daemon2}" submit -id smoke2 \
  -experiments "${EXPERIMENTS}" -seed "${SEED}" >"${work}/submit2.json" \
  || die "leg-2 submit failed"

echo "chaos smoke: waiting for ≥2 completions before the kill"
for _ in $(seq 1 600); do
  d=$(done_count)
  [[ "${d:-0}" -ge 2 ]] && break
  sleep 0.1
done
d=$(done_count)
[[ "${d:-0}" -ge 2 ]] || die "campaign never got underway (done=${d:-0})"
[[ "${d}" -le $((n - 2)) ]] || die "campaign drained too fast to test a mid-flight daemon kill (done=${d}/${n})"

echo "chaos smoke: SIGKILL campaignd (done=${d}/${n})"
kill -9 "${daemon2_pid}"
wait "${daemon2_pid}" 2>/dev/null || true

echo "chaos smoke: restarting campaignd on ${addr2} over the same state"
"${work}/campaignd" -addr "${addr2}" \
  -data "${work}/data2" -state "${work}/state2" \
  -lease 5s -heartbeat-timeout 3s -sweep 250ms \
  2>>"${work}/campaignd2.log" &
daemon2_pid=$!
sleep 0.5
kill -0 "${daemon2_pid}" 2>/dev/null || die "restarted campaignd died (port not rebindable?)"

grep -q "restored" "${work}/campaignd2.log" \
  || die "restarted daemon never logged a state restore — job log not read"

echo "chaos smoke: waiting for completion through the restart"
if ! "${work}/campaignctl" -daemon "${daemon2}" wait -timeout 5m -poll 1s smoke2 \
  2>"${work}/wait2.log"; then
  code=$?
  [[ ${code} -eq 4 ]] && die "leg-2 campaign completed DEGRADED"
  die "leg-2 campaignctl wait exited ${code}"
fi

# The workers must have ridden out the outage — same PIDs, never restarted.
kill -0 "${w3_pid}" 2>/dev/null || die "worker slow-1 did not survive the daemon restart"
kill -0 "${w4_pid}" 2>/dev/null || die "worker slow-2 did not survive the daemon restart"

"${work}/campaignctl" -daemon "${daemon2}" records smoke2 >"${work}/merged2.jsonl" \
  || die "leg-2 records fetch failed"
sort "${work}/merged2.jsonl" >"${work}/merged2.sorted"
diff -u "${work}/truth.sorted" "${work}/merged2.sorted" \
  || die "leg-2 merged records differ from the single-process run"

echo "chaos smoke: PASS leg 2 — ${n} records identical across daemon SIGKILL + restart"
echo "chaos smoke: PASS"
