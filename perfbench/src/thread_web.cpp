// thread_web: the thread host (default Mutex backend) runs the paper's
// Section VI PBPL setup — 8 pairs on 2 cores, 10 ms slots, 100 ms bound,
// B = 50 — fed the seeded web schedule open loop by ONE generator thread
// that merges all pairs' traces (runtime::TraceReplayer would spawn one
// thread per pair).  Consumers sleep most of the time, so wake planning
// sets wakes_per_item and latency while queue admission stays cheap.
//
// Item latency runs from the item's due time (see pace_until) to the
// return of the batch handler that consumed it: the generator queues each
// item's start time on its pair's lane before ThreadPbpl::produce, and the
// handler pops as many as the batch it was given (the Mutex backend
// drains each pair FIFO).
#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "tracer.hpp"
#include "web.hpp"

namespace perfbench {

namespace {

using namespace pcpc;

/// Generator lateness (p99) past which an open-loop run is flagged: half
/// a 10 ms slot.
constexpr double kLagBoundUs = 5000.0;
/// After the last due time, wait this long (> the 100 ms bound) so every
/// item is delivered by its planned wakeup, not by stop()'s final sweep.
constexpr std::int64_t kDrainGraceNs = 300'000'000;

/// An offered item: when its latency clock started (see pace_until) and
/// its id.
struct Offer {
  std::int64_t from_ns;
  std::uint64_t item;
};

/// One pair's bookkeeping.  `queue` is shared by the generator and the
/// manager thread that runs the pair's handler; the samples are written
/// only by that handler.
struct Lane {
  std::mutex mutex;
  std::deque<Offer> queue;
  std::vector<double> latency_us;
  std::vector<double> dispatch_us;
  std::vector<ItemPath> paths;
  std::uint64_t handled = 0;
  std::uint64_t underflow = 0;
  std::int64_t last_done_ns = 0;
};

struct Arrival {
  std::int64_t at_ns;
  std::uint32_t pair;
};

std::vector<Arrival> merge_schedule(const std::vector<trace::Trace>& traces) {
  std::vector<Arrival> schedule;
  for (std::uint32_t pair = 0; pair < traces.size(); ++pair) {
    for (const SimTime t : traces[pair].timestamps()) schedule.push_back({t, pair});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_ns < b.at_ns; });
  return schedule;
}

struct Phase {
  runtime::ThreadPbplStats stats;
  std::vector<double> latency_us;
  std::vector<double> dispatch_us;
  std::vector<double> lag_us;    ///< generator backlog per offer (see Pace)
  std::vector<double> timer_us;  ///< generator timer lateness per slept offer
  std::vector<double> produce_ns;
  std::vector<ItemPath> paths;
  std::uint64_t offered = 0;
  std::uint64_t handled = 0;
  std::uint64_t underflow = 0;
  double wall_s = 0.0;  ///< first due time to the last handler return
  double cpu_ns = 0.0;  ///< process CPU, the generator's pacing waits excluded
};

Phase replay(const std::vector<Arrival>& schedule, double seconds,
             const core::PbplConfig& config, bool traced) {
  Phase phase;
  std::array<Lane, kWebPairs> lanes;
  const Tracer* tracer = Tracer::current();
  const auto handler = [&lanes, tracer](std::size_t consumer, std::size_t batch) {
    if (batch == 0) return;
    ScopedSpan span("handler", Layer::kHandler, static_cast<std::uint32_t>(consumer));
    const std::int64_t entry = mono_ns();
    Lane& lane = lanes[consumer];
    Offer popped[256];
    std::size_t left = batch;
    while (left > 0) {
      std::size_t n = 0;
      {
        const std::lock_guard lock(lane.mutex);
        while (n < std::min(left, std::size(popped)) && !lane.queue.empty()) {
          popped[n++] = lane.queue.front();
          lane.queue.pop_front();
        }
      }
      if (n == 0) {
        lane.underflow += left;
        break;
      }
      left -= n;
      const std::int64_t done = mono_ns();
      for (std::size_t i = 0; i < n; ++i) {
        lane.latency_us.push_back(static_cast<double>(done - popped[i].from_ns) * 1e-3);
        lane.dispatch_us.push_back(static_cast<double>(entry - popped[i].from_ns) * 1e-3);
        if (tracer != nullptr && tracer->keeps(popped[i].item)) {
          lane.paths.push_back({popped[i].item, static_cast<std::uint32_t>(consumer),
                                popped[i].from_ns, done});
        }
      }
      lane.handled += n;
      lane.last_done_ns = done;
    }
  };

  runtime::ThreadPbpl host(kWebPairs, config, handler);
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  phase.lag_us.reserve(schedule.size());
  phase.timer_us.reserve(schedule.size());
  if (traced) phase.produce_ns.reserve(schedule.size());
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = mono_ns() + 1'000'000;
  std::uint64_t item = 0;
  std::int64_t pacing_ns = 0;
  for (const Arrival& a : schedule) {
    if (a.at_ns >= horizon) break;
    const std::int64_t due = start + a.at_ns;
    const Pace pace = pace_until(due, pacing_ns);
    phase.lag_us.push_back(static_cast<double>(pace.backlog_ns) * 1e-3);
    if (pace.backlog_ns == 0) phase.timer_us.push_back(static_cast<double>(pace.timer_ns) * 1e-3);
    ++item;
    {
      const std::lock_guard lock(lanes[a.pair].mutex);
      lanes[a.pair].queue.push_back({pace.from_ns, item});
    }
    ScopedSpan span("runtime.produce", Layer::kRuntime, a.pair, item);
    host.produce(a.pair);
    if (traced) phase.produce_ns.push_back(static_cast<double>(span.close()));
  }
  phase.offered = item;
  sleep_until_ns(start + horizon + kDrainGraceNs);
  host.stop();
  phase.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0 - pacing_ns);
  phase.stats = host.stats();
  std::int64_t last_done = start;
  for (Lane& lane : lanes) {
    last_done = std::max(last_done, lane.last_done_ns);
    phase.latency_us.insert(phase.latency_us.end(), lane.latency_us.begin(),
                            lane.latency_us.end());
    phase.dispatch_us.insert(phase.dispatch_us.end(), lane.dispatch_us.begin(),
                             lane.dispatch_us.end());
    phase.paths.insert(phase.paths.end(), lane.paths.begin(), lane.paths.end());
    phase.handled += lane.handled;
    phase.underflow += lane.underflow + lane.queue.size();
  }
  phase.wall_s = static_cast<double>(last_done - start) * 1e-9;
  return phase;
}

void check(Report& report, const Phase& p) {
  const runtime::ThreadPbplStats& s = p.stats;
  report.attempted += p.offered;
  report.failed += s.dropped() + (p.offered - std::min(p.offered, s.items));
  report.check(s.produced == p.offered, "thread_web: produced != items offered");
  report.check(s.produced == s.items + s.dropped(), "thread_web: produced != items + dropped()");
  report.check(p.handled == s.items, "thread_web: handler tally != items");
  report.check(p.underflow == 0, "thread_web: handler batches do not match offered items");
}

}  // namespace

Report run_thread_web(const Args& args) {
  Report report;
  const exp::ExperimentSpec spec = web_spec();
  const core::PbplConfig config = spec.setup.synchronized_pbpl();
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const SimDuration duration = from_seconds(phase_seconds);

  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<Arrival> schedule;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = mono_ns();
    schedule = merge_schedule(web_traces(args.seed, 0, duration));
    const std::int64_t t1 = mono_ns();
    { runtime::ThreadPbpl host(kWebPairs, config); }
    gen_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
  }

  const power::PowerModelParams& power = spec.power;
  const auto cpu_per_item = [](const Phase& p) {
    return p.cpu_ns / static_cast<double>(p.stats.items);
  };

  if (!args.trace) {
    Phase p = replay(schedule, phase_seconds, config, false);
    check(report, p);
    const runtime::ThreadPbplStats& s = p.stats;
    const double items = static_cast<double>(s.items);
    const double wakes = static_cast<double>(s.scheduled_wakeups + s.overflow_wakeups);
    const double lag_p99 = quantile(p.lag_us, 0.99);
    report.e2e["setup_s"] = median(setup_s);
    report.e2e["items_per_s"] = items / p.wall_s;
    report.e2e["latency_p50_us"] = quantile(p.latency_us, 0.50);
    report.e2e["latency_p95_us"] = quantile(p.latency_us, 0.95);
    report.info["latency_p99_us"] = quantile(p.latency_us, 0.99);
    report.e2e["wakes_per_item"] = wakes / items;
    report.e2e["uj_per_item"] =
        (power.wakeup_energy_j * wakes +
         power.active_power_w * static_cast<double>(s.manager_cpu_ns) * 1e-9 +
         power.item_transport_energy_j * items) /
        items * 1e6;
    report.e2e["cpu_ns_per_item"] = cpu_per_item(p);
    report.info["latency_samples"] = static_cast<double>(p.latency_us.size());
    report.info["drop_frac"] = static_cast<double>(s.dropped()) / static_cast<double>(s.produced);
    report.info["gen.lag_p99_us"] = lag_p99;
    report.info["gen.timer_late_p99_us"] = quantile(p.timer_us, 0.99);
    report.info["open_loop_valid"] = lag_p99 <= kLagBoundUs ? 1.0 : 0.0;
    return report;
  }

  Phase plain = replay(schedule, phase_seconds, config, false);
  check(report, plain);
  Phase p;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::uint64_t ledger_items = 0;
  std::array<std::int64_t, kLayerCount> self{};
  double path_frac = 0.0;
  {
    obs::Session session;
    Tracer tracer(1u << 16, 64);
    p = replay(schedule, phase_seconds, config, true);
    paid = session.ledger().paid_total();
    free = session.ledger().free_total();
    ledger_items = session.ledger().items_total();
    self = tracer.self_ns();
    path_frac = tracer.path_fraction(p.paths);
    if (!args.span_out.empty()) tracer.write_jsonl(args.span_out);
  }
  check(report, p);
  const runtime::ThreadPbplStats& s = p.stats;
  // Ledger cross-check: the obs ledger sees every drained item, and
  // attributes every consumer invocation made at a wake as paid (it woke
  // the manager) or free (it latched onto that wake).  Only stop()'s final
  // sweep — at most one invocation per pair — drains without a wake.
  // Every paid wake is one of the host's scheduled or overflow wakeups.
  report.check(ledger_items == s.items, "thread_web: ledger items != items");
  report.check(paid + free <= s.invocations && s.invocations <= paid + free + kWebPairs,
               "thread_web: ledger paid + free does not match invocations");
  report.check(paid <= s.scheduled_wakeups + s.overflow_wakeups,
               "thread_web: ledger paid > scheduled + overflow wakeups");
  const double items = static_cast<double>(s.items);
  auto& m = report.layer;
  m["trace.gen_s"] = median(gen_s);
  m["gen.lag_p99_us"] = quantile(p.lag_us, 0.99);
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
  m["runtime.dispatch_wait_us_p50"] = quantile(p.dispatch_us, 0.50);
  m["runtime.dispatch_wait_us_p99"] = quantile(p.dispatch_us, 0.99);
  m["runtime.self_ns_per_item"] =
      static_cast<double>(self[std::size_t(Layer::kRuntime)]) / items;
  m["handler.self_ns_per_item"] =
      static_cast<double>(self[std::size_t(Layer::kHandler)]) / items;
  m["obs.ledger_paid"] = static_cast<double>(paid);
  m["obs.ledger_free"] = static_cast<double>(free);
  m["span.overhead_frac"] = cpu_per_item(p) / cpu_per_item(plain) - 1.0;
  m["span.path_frac"] = path_frac;
  return report;
}

}  // namespace perfbench
