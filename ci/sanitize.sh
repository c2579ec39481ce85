#!/usr/bin/env bash
# Sanitizer gate for the concurrency-heavy suites.
#
# Builds the tree twice — once under ThreadSanitizer, once under
# AddressSanitizer+UBSan — and runs the chaos/runtime/fuzz suites under
# each.  These are the tests that exercise real threads, the overflow
# drain paths, the watchdog and the stop() races, i.e. exactly the code
# where a data race or lifetime bug would hide from the regular build.
#
# Usage: ci/sanitize.sh [build-dir-prefix]     (default: build-san)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"

# The suites worth the sanitizer slowdown: every test that spawns real
# threads or drives the fault injector.  IpcCrash and IpcLiveness fork
# real child processes — they self-skip under TSan (fork + shm atomics
# are outside TSan's model) and run fully under ASan/UBSan.
# example_pcpc_cli_payload drives the thread host's varlen record plane
# (produce_record).
suite_regex='ChaosRuntime|ChaosBaseline|ChaosSim|FaultInjector|ApplyProducerFaults|ThreadPbpl|ThreadBaseline|TraceReplayer|RuntimeChaosFuzz|RuntimeSharding|BufferPool|ElasticBuffer|QueueDifferential|QueueFuzz|IpcCrash|IpcLiveness|ObsIpc|ObsAttribution|Registry|TraceRing|Session|WakeupLedger|Fleet|Planner|example_chaos_demo|example_live_threads|example_pcpc_cli_payload'

run_pass() {
  local name="$1" sanitize="$2"
  local dir="${prefix}-${name}"
  echo "=== ${name}: configure (${sanitize}) ==="
  cmake -B "${dir}" -S . -DPCPC_SANITIZE="${sanitize}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "$(nproc)" \
    --target test_chaos_runtime test_fault_injection test_runtime \
             test_runtime_sharding test_fleet \
             test_fuzz_pbpl test_elastic_buffer test_obs test_obs_ledger \
             test_queue_differential test_queue_fuzz test_ipc_crash test_ipc_liveness \
             test_obs_ipc test_planner chaos_demo live_threads pcpc_cli
  echo "=== ${name}: test ==="
  ctest --test-dir "${dir}" --output-on-failure -R "${suite_regex}"
}

# TSan and ASan cannot be combined in one binary; run two passes.
run_pass tsan thread
run_pass asan address,undefined

echo "sanitize: all passes clean"
