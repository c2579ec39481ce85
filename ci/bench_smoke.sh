#!/usr/bin/env bash
# Telemetry smoke gate.
#
# Runs the instrumented overhead bench: the identical sim-host workload
# with and without a recording pcpc::obs session, timed in back-to-back
# pairs on process CPU time.  Fails when recording costs more than 5%
# (median paired ratio), when the wakeup ledger's Σ w(τ) disagrees with
# the simulator's own paid-wakeup counter, or when the exported
# metrics.json is missing/empty.  Then runs the queue_floor backend
# throughput gate and the shard_scaling runtime gate (4 cores must drain
# a saturated handler-bound workload at >= 1.8x the 1-core rate without
# minting wakeups beyond the slot schedule), the varlen_floor zero-copy
# record gate (in-ring reserve/commit + in-place drain vs the
# staging-copy path), and the ipc_floor
# cross-process gate (forked producers over the shm channel: throughput
# floor, futex-wake frugality, exact no-fault conservation), and the
# fleet_parking elastic-autoscaler gate (at ~10% utilization the
# controller must cut paid wakeups >= 30% and joules/item vs the static
# placement with zero Δ-SLO violations).  Also smoke-runs the chaos
# bench with exporters armed so the trace/metrics plumbing on the thread
# host stays exercised.
#
# Every gate appends one JSON line to <build>/bench_smoke/BENCH_<gate>.json
# — timestamp, git sha, the host fingerprint (core count, compiler id and
# version, build type) and the gate's headline numbers — so the benches
# keep a trajectory across runs
# instead of only gating, without touching the committed BENCH_*.json
# history at the repo root.
#
# Usage: ci/bench_smoke.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
out="${build}/bench_smoke"
mkdir -p "${out}"

stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cores="$(nproc)"
# The build tree's compiler and build type.  The compiler id and version
# are not cache entries: CMake records them per tree in
# CMakeFiles/<cmake-version>/CMakeCXXCompiler.cmake.
compiler_var() {
  cat "${build}"/CMakeFiles/*/CMakeCXXCompiler.cmake 2>/dev/null |
    sed -n "s/^set($1 \"\(.*\)\")$/\1/p" | head -1
}
compiler="$(compiler_var CMAKE_CXX_COMPILER_ID) $(compiler_var CMAKE_CXX_COMPILER_VERSION)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "${build}/CMakeCache.txt" 2>/dev/null | head -1)"
# record <gate> <json-fields>: append one trajectory line for this run.
record() {
  printf '{"utc":"%s","git":"%s","nproc":%s,"compiler":"%s","build_type":"%s",%s}\n' \
    "${stamp}" "${sha}" "${cores}" "${compiler}" "${build_type}" "$2" \
    >> "${out}/BENCH_$1.json"
}

if [[ ! -x "${build}/bench/obs_overhead" ]]; then
  echo "bench_smoke: ${build}/bench/obs_overhead not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target obs_overhead chaos_overload'" >&2
  exit 2
fi

echo "=== obs_overhead: 5% telemetry gate (spans armed too) ==="
# This is a cost *measurement* on a possibly-shared host: neighbour
# contention can only inflate the estimate, never push it below the true
# cost, so any clean attempt certifies the bound.  Retry a stomped run
# before declaring a regression.
obs_ok=false
for attempt in 1 2 3; do
  if "${build}/bench/obs_overhead" \
      --metrics-out="${out}/metrics.json" \
      --max-overhead=1.05 \
      --repeats=9 --seconds=30 --pairs=8 --span-every=64 | tee "${out}/obs_overhead.txt"; then
    obs_ok=true
    break
  fi
  echo "bench_smoke: obs_overhead attempt ${attempt} over the gate; retrying" >&2
done
if ! ${obs_ok}; then
  echo "bench_smoke: obs_overhead failed all 3 attempts" >&2
  exit 1
fi
overhead_pct="$(grep -oE 'paired ratios\): -?[0-9.]+' "${out}/obs_overhead.txt" | grep -oE '\-?[0-9.]+$' || echo null)"
span_overhead_pct="$(grep -oE 'span ratios\): -?[0-9.]+' "${out}/obs_overhead.txt" | grep -oE '\-?[0-9.]+$' || echo null)"
record obs_overhead "\"overhead_pct\":${overhead_pct},\"span_overhead_pct\":${span_overhead_pct},\"gate_pct\":5.0,\"pass\":true"

if [[ ! -s "${out}/metrics.json" ]]; then
  echo "bench_smoke: ${out}/metrics.json missing or empty" >&2
  exit 1
fi
grep -q '"wakeups"' "${out}/metrics.json" || {
  echo "bench_smoke: metrics.json has no wakeup ledger" >&2
  exit 1
}

echo "=== queue_floor: backend throughput gate ==="
if [[ ! -x "${build}/bench/queue_floor" ]]; then
  echo "bench_smoke: ${build}/bench/queue_floor not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target queue_floor'" >&2
  exit 2
fi
"${build}/bench/queue_floor" | tee "${out}/queue_floor.txt"
spsc_x="$(grep -oE '\([0-9.]+x\)' "${out}/queue_floor.txt" | head -1 | tr -d '()x')"
mpsc_x="$(grep -oE '\([0-9.]+x\)' "${out}/queue_floor.txt" | tail -1 | tr -d '()x')"
record queue_floor "\"spsc_vs_mutex_1p\":${spsc_x:-null},\"mpsc_vs_mutex_4p\":${mpsc_x:-null},\"pass\":true"

echo "=== shard_scaling: per-core runtime scaling gate ==="
if [[ ! -x "${build}/bench/shard_scaling" ]]; then
  echo "bench_smoke: ${build}/bench/shard_scaling not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target shard_scaling'" >&2
  exit 2
fi
"${build}/bench/shard_scaling" --items=2000 --trials=3 | tee "${out}/shard_scaling.txt"
scaling_x="$(grep -oE 'throughput: [0-9.]+x' "${out}/shard_scaling.txt" | grep -oE '[0-9.]+')"
record shard_scaling "\"four_core_vs_one\":${scaling_x:-null},\"gate\":1.8,\"pass\":true"

echo "=== varlen_floor: zero-copy record plane gate ==="
if [[ ! -x "${build}/bench/varlen_floor" ]]; then
  echo "bench_smoke: ${build}/bench/varlen_floor not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target varlen_floor'" >&2
  exit 2
fi
# In-ring reserve/commit + in-place drain vs the staging-copy path:
# >= 1.5x at 4 KiB SPSC, >= 1.2x with 4 MPSC producers.  Bandwidth
# ratios on one box are stable, but a noisy neighbour can stomp either
# side of a pair; retry a stomped run before declaring a regression.
varlen_ok=false
for attempt in 1 2 3; do
  if "${build}/bench/varlen_floor" --bytes=$((16 << 20)) --trials=3 \
      --json-out="${out}/varlen_floor.json" | tee "${out}/varlen_floor.txt"; then
    varlen_ok=true
    break
  fi
  echo "bench_smoke: varlen_floor attempt ${attempt} under the floor; retrying" >&2
done
if ! ${varlen_ok}; then
  echo "bench_smoke: varlen_floor failed all 3 attempts" >&2
  exit 1
fi
# The bench already emits its record as JSON; fold it into the trajectory.
record varlen_floor "$(sed 's/^{//;s/}$//' "${out}/varlen_floor.json")"

echo "=== ipc_floor: cross-process host gate ==="
if [[ ! -x "${build}/bench/ipc_floor" ]]; then
  echo "bench_smoke: ${build}/bench/ipc_floor not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target ipc_floor'" >&2
  exit 2
fi
"${build}/bench/ipc_floor" --json-out="${out}/ipc_floor.json" | tee "${out}/ipc_floor.txt"
# The bench already emits its record as JSON; fold it into the trajectory.
record ipc_floor "$(sed 's/^{//;s/}$//' "${out}/ipc_floor.json")"

echo "=== fleet_parking: elastic autoscaler gate ==="
if [[ ! -x "${build}/bench/fleet_parking" ]]; then
  echo "bench_smoke: ${build}/bench/fleet_parking not built" >&2
  echo "bench_smoke: run 'cmake --build ${build} --target fleet_parking'" >&2
  exit 2
fi
# At the ~10% utilization point the elastic controller must cut paid
# wakeups >= 30% and joules/item vs the static placement with zero Δ-SLO
# violations.  Deterministic sim replay: no retry needed.
"${build}/bench/fleet_parking" | tee "${out}/fleet_parking.txt"
# The bench's last line is its JSON record; fold it into the trajectory.
record fleet_parking "$(tail -1 "${out}/fleet_parking.txt" | sed 's/^{//;s/}$//')"

echo "=== chaos_overload: exporter smoke (thread host) ==="
"${build}/bench/chaos_overload" "${out}/chaos.csv" \
  --trace-out="${out}/chaos_trace.json" \
  --metrics-out="${out}/chaos_metrics.json" > /dev/null
for f in chaos.csv chaos_trace.json chaos_metrics.json; do
  [[ -s "${out}/${f}" ]] || { echo "bench_smoke: ${out}/${f} missing" >&2; exit 1; }
done

echo "=== trajectory files: every BENCH_*.json line must parse ==="
# Malformed lines (a gate interpolating an empty capture, a half-written
# record from a crashed run) silently poison the trajectory history, so
# validate every line of every trajectory file, committed and new: it
# must parse as one JSON object carrying at least utc/git/pass keys.
python3 - BENCH_*.json "${out}"/BENCH_*.json <<'PY'
import json, sys

bad = 0
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"bench_smoke: {path}:{lineno}: not JSON ({err})", file=sys.stderr)
                bad += 1
                continue
            if not isinstance(rec, dict):
                print(f"bench_smoke: {path}:{lineno}: not a JSON object", file=sys.stderr)
                bad += 1
                continue
            missing = [k for k in ("utc", "git", "pass") if k not in rec]
            if missing:
                print(f"bench_smoke: {path}:{lineno}: missing keys {missing}",
                      file=sys.stderr)
                bad += 1
sys.exit(1 if bad else 0)
PY

echo "bench_smoke: all gates clean (artifacts in ${out}/)"
