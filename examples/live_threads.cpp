// Live-threads demo: the PBPL runtime on real std::thread, racing the
// classic per-item Mutex implementation on the same replayed workload.
// Both rounds run on the one thread host: Mutex is its PerItem wake
// policy with one manager thread per pair, PBPL its default policy with
// one manager for all four pairs.
//
// Unlike the simulation benches this runs on the wall clock, counts real
// condvar wakeups and measures real CPU time — the closest this library
// gets to the paper's board measurements without the board.
//
//   $ ./examples/live_threads [seconds]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "pcpc/core/config.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/runtime/trace_replayer.hpp"
#include "pcpc/trace/webserver_log.hpp"

using namespace pcpc;

int main(int argc, char** argv) {
  const double run_seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  const SimDuration horizon = from_seconds(run_seconds);
  const std::size_t pairs = 4;

  // A gentle live workload: ~400 requests/s per pair (real threads on a
  // shared machine; the simulation benches handle the hot regimes).
  trace::WebWorkloadParams workload;
  workload.duration = horizon;
  workload.base_rate_hz = 400.0;
  const auto traces = trace::make_shifted_workloads(workload, pairs);
  std::size_t total_items = 0;
  for (const auto& t : traces) total_items += t.size();
  std::printf("Replaying %zu requests over %.1f s across %zu pairs...\n", total_items,
              run_seconds, pairs);

  // Round 1: per-item Mutex signaling, one thread per pair, fixed B = 64.
  core::PbplConfig mutex_config;
  mutex_config.cores = pairs;
  mutex_config.base_buffer = 64;
  mutex_config.pool_segment = 8;
  mutex_config.wake_policy = core::WakePolicy::PerItem;
  runtime::ThreadPbplStats mutex_stats;
  {
    runtime::ThreadPbpl mutex(pairs, mutex_config);
    runtime::TraceReplayer replayer(traces, horizon,
                                    [&](std::size_t p) { mutex.produce(p); });
    replayer.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    mutex.stop();
    mutex_stats = mutex.stats();
  }

  // Round 2: PBPL with a 10 ms slot track on one manager "core".
  core::PbplConfig config;
  config.cores = 1;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(100);
  config.base_buffer = 64;
  config.pool_segment = 8;
  runtime::ThreadPbplStats pbpl_stats;
  {
    runtime::ThreadPbpl pbpl(pairs, config);
    runtime::TraceReplayer replayer(traces, horizon,
                                    [&](std::size_t p) { pbpl.produce(p); });
    replayer.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    pbpl.stop();
    pbpl_stats = pbpl.stats();
  }

  const double mutex_wakeups =
      static_cast<double>(mutex_stats.scheduled_wakeups + mutex_stats.overflow_wakeups);
  const double pbpl_wakeups =
      static_cast<double>(pbpl_stats.scheduled_wakeups + pbpl_stats.overflow_wakeups);

  std::printf("\n%-28s %12s %12s\n", "", "Mutex", "PBPL");
  std::printf("%-28s %12llu %12llu\n", "items consumed",
              static_cast<unsigned long long>(mutex_stats.items),
              static_cast<unsigned long long>(pbpl_stats.items));
  std::printf("%-28s %12llu %12llu\n", "consumer invocations",
              static_cast<unsigned long long>(mutex_stats.invocations),
              static_cast<unsigned long long>(pbpl_stats.invocations));
  std::printf("%-28s %12.0f %12.0f\n", "thread wakeups", mutex_wakeups, pbpl_wakeups);
  std::printf("%-28s %12.1f %12.1f\n", "mean batch (items)",
              mutex_stats.batch_sizes.mean(), pbpl_stats.batch_sizes.mean());
  std::printf("%-28s %12.2f %12.2f\n", "mean latency (ms)",
              mutex_stats.latency_s.mean() * 1e3, pbpl_stats.latency_s.mean() * 1e3);
  std::printf("%-28s %12.2f %12.2f\n", "consumer CPU (ms)",
              static_cast<double>(mutex_stats.manager_cpu_ns) * 1e-6,
              static_cast<double>(pbpl_stats.manager_cpu_ns) * 1e-6);
  if (pbpl_stats.reservations > 0) {
    std::printf("%-28s %12s %11.0f%%\n", "latched reservations", "-",
                100.0 * static_cast<double>(pbpl_stats.latched_reservations) /
                    static_cast<double>(pbpl_stats.reservations));
  }
  std::printf("\nwakeup reduction: %.1f%% — every avoided wakeup is an idle window the\n"
              "CPU can spend in a deep C-state (the quantity the paper's scope measured\n"
              "as board power).\n",
              100.0 * (mutex_wakeups - pbpl_wakeups) / mutex_wakeups);
  return 0;
}
