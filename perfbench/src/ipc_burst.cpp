// ipc_burst: the cross-process host's shm channel, futex doorbell and
// in-segment varlen rings (queue::VarSpscRing in shm), all in one
// process.  One ipc::Consumer thread runs pcpc_cli's loop — drain_records,
// reap, wait(10 ms) when empty — while 2 ipc::Producer endpoints on their
// own threads send seeded 64–1024 B records in open-loop bursts every
// 20–30 ms.  Burst sizes straddle the doorbell threshold (capacity / 2),
// so some bursts ring the doorbell and the rest wait for the consumer's
// timeout: the idle gaps make the wait policy visible.
//
// Every record carries its producer id, sequence number and due time; the
// consumer checks per-producer FIFO order, the size drawn for that record
// and its last payload byte, and times the record from its burst's due
// time (see pace_until) to the return of its callback.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "bench.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/ipc/channel.hpp"
#include "pcpc/obs/obs.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using namespace pcpc;

constexpr std::size_t kProducers = 2;
constexpr std::size_t kCapacity = 1024;
constexpr std::uint32_t kMinRecord = 64;
constexpr std::uint32_t kMaxRecord = 1024;
constexpr std::int64_t kWaitNs = 10'000'000;  // the wait policy's Δ
constexpr double kLagBoundUs = 5000.0;  // generator lateness (p99) flagged: Δ / 2

struct RecordHead {
  std::uint32_t producer;
  std::uint32_t size;
  std::uint64_t seq;
  std::int64_t from_ns;  ///< the burst's due time, see pace_until
};
static_assert(sizeof(RecordHead) <= kMinRecord);

struct Burst {
  std::int64_t at_ns;
  std::array<std::uint32_t, kProducers> count;
};

struct Schedule {
  std::vector<Burst> bursts;
  std::array<std::vector<std::uint16_t>, kProducers> sizes;  ///< per record, in order
};

/// Bursts every 20–30 ms.  Burst totals are stratified: each block of
/// kBlock bursts takes one total from each of kBlock equal slices of
/// [capacity/8, 9·capacity/16] (seeded position within the slice, seeded
/// order), split evenly over the producers.  So the share of records in
/// bursts below the cap/2 doorbell threshold — which wait for the
/// consumer's Δ timeout — is the same ~78% in every run, while the rest
/// ring the doorbell; a freely drawn mix would move the median latency
/// between the two groups from seed to seed.  No burst reaches capacity.
Schedule make_schedule(std::uint64_t seed, double seconds) {
  constexpr std::uint32_t kBlock = 16;
  constexpr double kLo = kCapacity / 8.0;
  constexpr double kHi = 9.0 * kCapacity / 16.0;
  std::mt19937_64 rng(seed ^ 0x1bc5a1d2e3f40617ULL);
  std::uniform_int_distribution<std::int64_t> gap(20'000'000, 30'000'000);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> size(kMinRecord, kMaxRecord);
  std::array<std::uint32_t, kBlock> block{};
  Schedule s;
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t t = gap(rng) / 4; t < horizon; t += gap(rng)) {
    const std::size_t j = s.bursts.size() % kBlock;
    if (j == 0) {
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        block[i] = static_cast<std::uint32_t>(kLo + (i + unit(rng)) * (kHi - kLo) / kBlock);
      }
      std::shuffle(block.begin(), block.end(), rng);
    }
    Burst b{t, {}};
    const std::uint32_t n = block[j];
    for (std::size_t p = 0; p < kProducers; ++p) {
      b.count[p] = static_cast<std::uint32_t>(n / kProducers + (p < n % kProducers ? 1 : 0));
      for (std::uint32_t k = 0; k < b.count[p]; ++k) {
        s.sizes[p].push_back(static_cast<std::uint16_t>(size(rng)));
      }
    }
    s.bursts.push_back(b);
  }
  return s;
}

ipc::ChannelConfig channel_config() {
  ipc::ChannelConfig config;
  config.capacity = kCapacity;
  config.payload_max_record = kMaxRecord;
  config.payload_ring_bytes = 1u << 20;  // > half the largest burst of max-size records
  return config;
}

std::string shm_name() {
  static std::atomic<int> counter{0};
  return "/pcpc_perfbench_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

struct Endpoints {
  ipc::Consumer consumer;
  std::array<ipc::Producer, kProducers> producers;
};

/// Creates the channel and attaches every producer; nullopt on failure.
std::optional<Endpoints> open_channel(std::string* error) {
  auto consumer = ipc::Consumer::create(shm_name(), channel_config(), error);
  if (!consumer.has_value()) return std::nullopt;
  Endpoints e{std::move(*consumer), {}};
  for (auto& p : e.producers) {
    auto attached = ipc::Producer::attach(e.consumer.shm_name(), {}, error);
    if (!attached.has_value()) return std::nullopt;
    p = std::move(*attached);
  }
  return e;
}

struct Phase {
  ipc::ConservationReport report;
  std::vector<double> latency_us;
  std::vector<double> lag_us;    ///< producer backlog per burst (see Pace)
  std::vector<double> timer_us;  ///< producer timer lateness per slept burst
  std::vector<double> push_ns;
  std::vector<ItemPath> paths;
  std::array<std::uint64_t, 3> waits{};  ///< by ipc::WakeKind
  std::uint64_t offered = 0;
  std::uint64_t pushed_ok = 0;
  std::uint64_t push_full = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bad_records = 0;
  double drain_ns = 0.0;
  double reap_ns = 0.0;
  std::uint64_t reaps = 0;
  double consumer_cpu_ns = 0.0;
  double cpu_ns = 0.0;  ///< process CPU, the producers' pacing waits excluded
  double wall_s = 0.0;
};

std::uint64_t item_id(std::size_t producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) + 1) << 40 | (seq + 1);
}

Phase run_bursts(Endpoints& ep, const Schedule& schedule, double seconds) {
  Phase phase;
  const Tracer* tracer = Tracer::current();
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> producers_done{0};
  std::array<std::uint64_t, kProducers> next_seq{};
  std::int64_t last_done = 0;

  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = mono_ns() + 1'000'000;

  std::thread consumer_thread([&] {
    const std::int64_t ccpu0 = thread_cpu_ns();
    ipc::Consumer& c = ep.consumer;
    const auto on_record = [&](std::span<const std::byte> payload) {
      RecordHead h{};
      std::memcpy(&h, payload.data(), sizeof h);
      const bool known = h.producer < kProducers && h.seq < schedule.sizes[h.producer].size();
      ScopedSpan span("handler", Layer::kHandler, 0, known ? item_id(h.producer, h.seq) : 0);
      const bool ok = known && h.seq >= next_seq[h.producer] && h.size == payload.size() &&
                      h.size == schedule.sizes[h.producer][h.seq] &&
                      payload[h.size - 1] == static_cast<std::byte>((h.size - 1) & 0xff);
      if (!ok) {
        ++phase.bad_records;
        return;
      }
      next_seq[h.producer] = h.seq + 1;
      phase.bytes_received += payload.size();
      const std::int64_t done = mono_ns();
      phase.latency_us.push_back(static_cast<double>(done - h.from_ns) * 1e-3);
      const std::uint64_t id = item_id(h.producer, h.seq);
      if (tracer != nullptr && tracer->keeps(id)) phase.paths.push_back({id, 0, h.from_ns, done});
      last_done = done;
    };
    while (true) {
      {
        ScopedSpan span("ipc.drain_records", Layer::kIpc, 0);
        phase.delivered += c.drain_records(on_record);
        phase.drain_ns += static_cast<double>(span.close());
      }
      {
        ScopedSpan span("ipc.reap", Layer::kIpc, 0);
        c.reap();
        phase.reap_ns += static_cast<double>(span.close());
        ++phase.reaps;
      }
      if (producers_done.load(std::memory_order_acquire) == kProducers &&
          c.report().residue == 0 && !c.has_visible_work()) {
        break;
      }
      if (!c.has_visible_work()) {
        ScopedSpan span("ipc.wait", Layer::kIdle, 0);
        ++phase.waits[static_cast<std::size_t>(c.wait(kWaitNs))];
      }
    }
    phase.consumer_cpu_ns = static_cast<double>(thread_cpu_ns() - ccpu0);
  });

  std::array<std::vector<double>, kProducers> lag;
  std::array<std::vector<double>, kProducers> timer;
  std::array<std::int64_t, kProducers> pacing_ns{};
  std::array<std::vector<double>, kProducers> push_ns;
  struct Tally {
    std::uint64_t offered = 0, ok = 0, full = 0, bytes = 0;
  };
  std::array<Tally, kProducers> tally{};
  std::vector<std::thread> producer_threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producer_threads.emplace_back([&, p] {
      ipc::Producer& producer = ep.producers[p];
      std::array<std::byte, kMaxRecord> staging{};
      for (std::size_t i = 0; i < staging.size(); ++i) {
        staging[i] = static_cast<std::byte>(i & 0xff);
      }
      std::uint64_t seq = 0;
      for (const Burst& burst : schedule.bursts) {
        if (burst.at_ns >= horizon) break;
        const std::int64_t due = start + burst.at_ns;
        const Pace pace = pace_until(due, pacing_ns[p]);
        lag[p].push_back(static_cast<double>(pace.backlog_ns) * 1e-3);
        if (pace.backlog_ns == 0) timer[p].push_back(static_cast<double>(pace.timer_ns) * 1e-3);
        for (std::uint32_t k = 0; k < burst.count[p]; ++k, ++seq) {
          const std::uint32_t size = schedule.sizes[p][seq];
          const RecordHead head{static_cast<std::uint32_t>(p), size, seq, pace.from_ns};
          std::memcpy(staging.data(), &head, sizeof head);
          ScopedSpan span("ipc.push_record", Layer::kIpc, 0, item_id(p, seq));
          const ipc::PushResult r = producer.push_record(std::span(staging.data(), size));
          const std::int64_t d = span.close();
          if (tracer != nullptr) push_ns[p].push_back(static_cast<double>(d));
          ++tally[p].offered;
          if (r == ipc::PushResult::kOk) {
            ++tally[p].ok;
            tally[p].bytes += size;
          } else if (r == ipc::PushResult::kFull) {
            ++tally[p].full;
          }
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (auto& t : producer_threads) t.join();
  consumer_thread.join();
  phase.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0 - pacing_ns[0] - pacing_ns[1]);
  phase.wall_s = static_cast<double>(last_done - start) * 1e-9;
  phase.report = ep.consumer.report();
  for (std::size_t p = 0; p < kProducers; ++p) {
    phase.lag_us.insert(phase.lag_us.end(), lag[p].begin(), lag[p].end());
    phase.timer_us.insert(phase.timer_us.end(), timer[p].begin(), timer[p].end());
    phase.push_ns.insert(phase.push_ns.end(), push_ns[p].begin(), push_ns[p].end());
    phase.offered += tally[p].offered;
    phase.pushed_ok += tally[p].ok;
    phase.push_full += tally[p].full;
    phase.bytes_sent += tally[p].bytes;
  }
  return phase;
}

void check(Report& report, const Phase& p) {
  const ipc::ConservationReport& r = p.report;
  report.attempted += p.offered;
  report.failed += p.offered - std::min(p.offered, p.delivered);
  report.check(r.admitted == r.consumed + r.reclaimed + r.residue,
               "ipc: admitted != consumed + reclaimed + residue");
  report.check(r.residue == 0 && r.reclaimed == 0, "ipc: residue or reclaimed left at the end");
  report.check(r.var_admitted_bytes == r.var_consumed_bytes + r.var_reclaimed_bytes +
                                           r.var_padding_bytes + r.var_residue_bytes,
               "ipc: varlen byte identity broken");
  report.check(r.var_residue_bytes == 0, "ipc: varlen bytes left in the rings");
  report.check(p.bad_records == 0, "ipc: a record broke FIFO order, its size or its payload");
  report.check(p.delivered == p.pushed_ok && p.delivered == r.var_delivered_records,
               "ipc: records delivered != records pushed");
  report.check(p.bytes_received == p.bytes_sent && r.var_delivered_bytes == p.bytes_sent,
               "ipc: payload bytes delivered != bytes sent");
  report.check(p.latency_us.size() == p.delivered, "ipc: latency samples != records");
}

}  // namespace

Report run_ipc_burst(const Args& args) {
  Report report;
  const power::PowerModelParams power = exp::multi_pair_spec(kProducers, kCapacity).power;
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<double> setup_s;
  std::vector<double> gen_s;
  Schedule schedule;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = mono_ns();
    schedule = make_schedule(args.seed, phase_seconds);
    const std::int64_t t1 = mono_ns();
    const bool opened = open_channel(&error).has_value();
    report.check(opened, "ipc: channel set-up failed: " + error);
    if (!opened) return report;
    gen_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
  }

  const auto phase = [&] {
    std::optional<Endpoints> ep = open_channel(&error);
    report.check(ep.has_value(), "ipc: channel set-up failed: " + error);
    if (!ep.has_value()) return Phase{};
    Phase p = run_bursts(*ep, schedule, phase_seconds);
    check(report, p);
    return p;
  };
  const auto cpu_per_item = [](const Phase& p) {
    return p.cpu_ns / static_cast<double>(p.delivered);
  };

  if (!args.trace) {
    Phase p = phase();
    if (!report.correct) return report;
    const double items = static_cast<double>(p.delivered);
    const double wakes = static_cast<double>(p.waits[0] + p.waits[1]);
    const double lag_p99 = quantile(p.lag_us, 0.99);
    report.e2e["setup_s"] = median(setup_s);
    report.e2e["items_per_s"] = items / p.wall_s;
    report.e2e["latency_p50_us"] = quantile(p.latency_us, 0.50);
    report.e2e["latency_p95_us"] = quantile(p.latency_us, 0.95);
    report.info["latency_p99_us"] = quantile(p.latency_us, 0.99);
    report.e2e["wakes_per_item"] = wakes / items;
    report.e2e["uj_per_item"] = (power.wakeup_energy_j * wakes +
                                 power.active_power_w * p.consumer_cpu_ns * 1e-9 +
                                 power.item_transport_energy_j * items) /
                                items * 1e6;
    report.e2e["cpu_ns_per_item"] = cpu_per_item(p);
    report.info["latency_samples"] = static_cast<double>(p.latency_us.size());
    report.info["drop_frac"] =
        static_cast<double>(p.offered - p.delivered) / static_cast<double>(p.offered);
    report.info["gen.lag_p99_us"] = lag_p99;
    report.info["gen.timer_late_p99_us"] = quantile(p.timer_us, 0.99);
    report.info["open_loop_valid"] = lag_p99 <= kLagBoundUs ? 1.0 : 0.0;
    return report;
  }

  const Phase plain = phase();
  Phase p;
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
  std::array<std::int64_t, kLayerCount> self{};
  double path_frac = 0.0;
  {
    obs::Session session;
    Tracer tracer(1u << 16, 64);
    p = phase();
    paid = session.ledger().paid_total();
    free = session.ledger().free_total();
    self = tracer.self_ns();
    path_frac = tracer.path_fraction(p.paths);
    if (!args.span_out.empty()) tracer.write_jsonl(args.span_out);
  }
  if (!report.correct) return report;
  const ipc::ConservationReport& r = p.report;
  // Ledger cross-check: Consumer::wait attributes each wake as paid
  // exactly when it consumed a producer's futex_wake token.
  report.check(paid == r.futex_wakes, "ipc: ledger paid != futex_wakes");
  report.check(paid == p.waits[0], "ipc: ledger paid != doorbell wakes");
  const double items = static_cast<double>(p.delivered);
  auto& m = report.layer;
  m["trace.gen_s"] = median(gen_s);
  m["gen.lag_p99_us"] = quantile(p.lag_us, 0.99);
  m["queue.var_useful_frac"] =
      static_cast<double>(r.var_consumed_bytes) / static_cast<double>(r.var_admitted_bytes);
  m["ipc.push_ns_p50"] = quantile(p.push_ns, 0.50);
  m["ipc.push_ns_p99"] = quantile(p.push_ns, 0.99);
  m["ipc.push_full"] = static_cast<double>(p.push_full);
  m["ipc.drain_ns_per_item"] =
      (p.drain_ns - static_cast<double>(self[std::size_t(Layer::kHandler)])) / items;
  m["ipc.reap_ns"] = p.reap_ns / static_cast<double>(p.reaps);
  m["ipc.wait.doorbell"] = static_cast<double>(p.waits[0]);
  m["ipc.wait.timeout"] = static_cast<double>(p.waits[1]);
  m["ipc.wait.poll"] = static_cast<double>(p.waits[2]);
  m["ipc.futex_wakes"] = static_cast<double>(r.futex_wakes);
  m["ipc.self_ns_per_item"] = static_cast<double>(self[std::size_t(Layer::kIpc)]) / items;
  m["handler.self_ns_per_item"] =
      static_cast<double>(self[std::size_t(Layer::kHandler)]) / items;
  m["obs.ledger_paid"] = static_cast<double>(paid);
  m["obs.ledger_free"] = static_cast<double>(free);
  m["span.overhead_frac"] = cpu_per_item(p) / cpu_per_item(plain) - 1.0;
  m["span.path_frac"] = path_frac;
  return report;
}

}  // namespace perfbench
