// thread_flood: the thread host with the MpscSeg backend, 4 pairs on 2
// cores, saturated by 2 producer threads in a closed loop.  Each producer
// runs round-robin over ALL pairs, so every ring has two writers.
// Admission, overflow drains and batch drains dominate; planning is
// nearly idle.  Closed-loop latency is buffer / throughput, so the latency
// metrics here are the host's own enqueue -> drain stamps
// (ThreadPbplStats::latency_s), not an open-loop due time.
//
// Throughput and CPU are sampled in 1 s windows; the run reports the
// median window, which keeps the first (warm-up) window and any one
// disturbed window out of the result.  The workload is runnable by hand but
// not listed in BENCHMARK.json: on a shared virtualised host whole runs
// lose CPU time, which moves its throughput and tail latency by ~20-25%
// between runs (perfbench/README.md, Steadiness).
#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace pcpc;

constexpr std::size_t kPairs = 4;
constexpr std::size_t kProducers = 2;
constexpr std::size_t kBuffer = 50;
constexpr std::int64_t kWindowNs = 1'000'000'000;
/// In traced runs every produce call is timed, but only every Nth
/// duration is kept for the percentiles (bounded memory at ~1M calls/s).
constexpr std::uint64_t kProduceSampleEvery = 16;

core::PbplConfig flood_config() {
  core::PbplConfig config = exp::multi_pair_spec(kPairs, kBuffer).setup.synchronized_pbpl();
  config.queue_backend = queue::BackendKind::MpscSeg;
  return config;
}

struct Phase {
  runtime::ThreadPbplStats stats;
  std::vector<double> window_items_per_s;
  std::vector<double> window_cpu_ns_per_item;
  std::vector<double> produce_ns;
  std::uint64_t handled = 0;
  std::uint64_t offered = 0;
  double cpu_ns = 0.0;
};

Phase flood(double seconds, const core::PbplConfig& config, bool traced) {
  Phase phase;
  std::array<std::atomic<std::uint64_t>, kPairs> handled{};
  // Placement: each producer owns one CPU and the two manager threads
  // share the other two, so the producers never time-share one CPU (the
  // scheduler otherwise does so now and then, halving a run's rate).
  // The managers inherit the mask of the thread that constructs the host.
  const std::vector<std::size_t> cpus = allowed_cpus();
  const bool place = cpus.size() >= kProducers + 2;
  if (place) pin_thread({cpus[kProducers], cpus[kProducers + 1]});
  runtime::ThreadPbpl host(kPairs, config, [&handled](std::size_t consumer, std::size_t batch) {
    ScopedSpan span("handler", Layer::kHandler, static_cast<std::uint32_t>(consumer));
    handled[consumer].fetch_add(batch, std::memory_order_relaxed);
  });
  if (place) pin_thread(cpus);
  const auto total_handled = [&handled] {
    std::uint64_t n = 0;
    for (const auto& h : handled) n += h.load(std::memory_order_relaxed);
    return n;
  };

  std::atomic<bool> go{true};
  std::array<std::uint64_t, kProducers> offered{};
  std::array<std::vector<double>, kProducers> produce_ns;
  std::vector<std::thread> producers;
  const std::int64_t cpu0 = process_cpu_ns();
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      if (place) pin_thread({cpus[t]});
      std::uint64_t n = 0;
      // Item ids only drive span sampling; the high bits keep the two
      // producers' ids apart.
      const std::uint64_t base = (t + 1) << 48;
      for (std::size_t pair = t; go.load(std::memory_order_relaxed); pair = (pair + 1) % kPairs) {
        if (!traced) {
          host.produce(pair);
        } else {
          ScopedSpan span("runtime.produce", Layer::kRuntime, static_cast<std::uint32_t>(pair),
                          base + n);
          host.produce(pair);
          const std::int64_t d = span.close();
          if (n % kProduceSampleEvery == 0) produce_ns[t].push_back(static_cast<double>(d));
        }
        ++n;
      }
      offered[t] = n;
    });
  }

  const std::int64_t start = mono_ns();
  std::uint64_t items_prev = total_handled();
  std::int64_t cpu_prev = process_cpu_ns();
  std::int64_t t_prev = start;
  const auto windows = static_cast<int>(std::max(1.0, seconds));
  for (int w = 1; w <= windows; ++w) {
    sleep_until_ns(start + w * kWindowNs);
    const std::int64_t now = mono_ns();
    const std::uint64_t items = total_handled();
    const std::int64_t cpu = process_cpu_ns();
    const double n = static_cast<double>(items - items_prev);
    phase.window_items_per_s.push_back(n / (static_cast<double>(now - t_prev) * 1e-9));
    phase.window_cpu_ns_per_item.push_back(static_cast<double>(cpu - cpu_prev) / n);
    items_prev = items;
    cpu_prev = cpu;
    t_prev = now;
  }
  go.store(false, std::memory_order_relaxed);
  for (auto& p : producers) p.join();
  host.stop();
  phase.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0);
  phase.stats = host.stats();
  phase.handled = total_handled();
  for (std::size_t t = 0; t < kProducers; ++t) {
    phase.offered += offered[t];
    phase.produce_ns.insert(phase.produce_ns.end(), produce_ns[t].begin(), produce_ns[t].end());
  }
  return phase;
}

void check(Report& report, const Phase& p) {
  const runtime::ThreadPbplStats& s = p.stats;
  report.attempted += p.offered;
  report.failed += s.dropped();
  report.check(s.produced == p.offered, "thread_flood: produced != items offered");
  report.check(s.produced == s.items + s.dropped(),
               "thread_flood: produced != items + dropped()");
  report.check(p.handled == s.items, "thread_flood: handler tally != items");
}

}  // namespace

Report run_thread_flood(const Args& args) {
  Report report;
  const core::PbplConfig config = flood_config();
  const power::PowerModelParams power = exp::multi_pair_spec(kPairs, kBuffer).power;

  // Closed loop: there is no schedule to generate, so set-up is host
  // construction (pool, rings, manager threads) alone.  It takes ~0.1 ms
  // and thread start-up jitter dominates it, hence the extra repetitions.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5 * kSetupReps; ++rep) {
    const std::int64_t t0 = mono_ns();
    { runtime::ThreadPbpl host(kPairs, config); }
    setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
  }

  if (!args.trace) {
    Phase p = flood(args.seconds, config, false);
    check(report, p);
    const runtime::ThreadPbplStats& s = p.stats;
    const double items = static_cast<double>(s.items);
    const double wakes = static_cast<double>(s.scheduled_wakeups + s.overflow_wakeups);
    report.e2e["setup_s"] = median(setup_s);
    report.e2e["items_per_s"] = median(p.window_items_per_s);
    report.e2e["latency_p50_us"] = s.latency_s.p50() * 1e6;
    report.e2e["latency_p95_us"] = s.latency_s.quantile(0.95) * 1e6;
    report.info["latency_p99_us"] = s.latency_s.p99() * 1e6;
    report.e2e["wakes_per_item"] = wakes / items;
    report.e2e["uj_per_item"] =
        (power.wakeup_energy_j * wakes +
         power.active_power_w * static_cast<double>(s.manager_cpu_ns) * 1e-9 +
         power.item_transport_energy_j * items) /
        items * 1e6;
    report.e2e["cpu_ns_per_item"] = median(p.window_cpu_ns_per_item);
    report.info["latency_samples"] = static_cast<double>(s.latency_s.count());
    report.info["windows"] = static_cast<double>(p.window_items_per_s.size());
    report.info["drop_frac"] = static_cast<double>(s.dropped()) / static_cast<double>(s.produced);
    return report;
  }

  Phase plain = flood(args.seconds / 2, config, false);
  check(report, plain);
  Phase p;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::uint64_t ledger_items = 0;
  std::array<std::int64_t, kLayerCount> self{};
  {
    obs::Session session;
    Tracer tracer(1u << 16, 1u << 12);
    p = flood(args.seconds / 2, config, true);
    paid = session.ledger().paid_total();
    free = session.ledger().free_total();
    ledger_items = session.ledger().items_total();
    self = tracer.self_ns();
    if (!args.span_out.empty()) tracer.write_jsonl(args.span_out);
  }
  check(report, p);
  const runtime::ThreadPbplStats& s = p.stats;
  report.check(ledger_items == s.items, "thread_flood: ledger items != items");
  report.check(paid + free <= s.invocations && s.invocations <= paid + free + kPairs,
               "thread_flood: ledger paid + free does not match invocations");
  report.check(paid <= s.scheduled_wakeups + s.overflow_wakeups,
               "thread_flood: ledger paid > scheduled + overflow wakeups");
  const double items = static_cast<double>(s.items);
  auto& m = report.layer;
  m["core.invocations"] = static_cast<double>(s.invocations);
  m["core.batch_mean"] = s.batch_sizes.mean();
  m["core.latched_frac"] =
      static_cast<double>(s.latched_reservations) / static_cast<double>(s.reservations);
  m["core.overflow_wakeups"] = static_cast<double>(s.overflow_wakeups);
  m["queue.emergency_borrows"] = static_cast<double>(s.emergency_borrows);
  m["queue.pool_exhausted"] = static_cast<double>(s.pool_exhausted);
  m["runtime.produce_ns_p50"] = quantile(p.produce_ns, 0.50);
  m["runtime.produce_ns_p99"] = quantile(p.produce_ns, 0.99);
  m["runtime.wakes_scheduled"] = static_cast<double>(s.scheduled_wakeups);
  m["runtime.wakes_overflow"] = static_cast<double>(s.overflow_wakeups);
  m["runtime.missed_deadlines"] = static_cast<double>(s.missed_deadlines);
  m["runtime.manager_cpu_ns_per_item"] = static_cast<double>(s.manager_cpu_ns) / items;
  m["runtime.self_ns_per_item"] =
      static_cast<double>(self[std::size_t(Layer::kRuntime)]) / items;
  m["handler.self_ns_per_item"] =
      static_cast<double>(self[std::size_t(Layer::kHandler)]) / items;
  m["obs.ledger_paid"] = static_cast<double>(paid);
  m["obs.ledger_free"] = static_cast<double>(free);
  const double plain_cpu = plain.cpu_ns / static_cast<double>(plain.stats.items);
  m["span.overhead_frac"] = p.cpu_ns / items / plain_cpu - 1.0;
  return report;
}

}  // namespace perfbench
