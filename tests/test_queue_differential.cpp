// Differential harness for the queue backends (mutex / SPSC ring / MPSC
// segments).
//
// The backends promise *identical observable semantics* behind the
// Handoff interface: same admission decisions, same elastic-capacity
// clamping against the pool, same drop accounting.  So the strongest test
// is differential — drive every backend and a test-local reference model
// (a std::deque with its own segment account) through an identical
// seeded workload and demand bit-identical outcomes, not merely
// plausible ones:
//
//   - the consumed item sequence (FIFO order, not just the multiset),
//   - the sequence of dropped item values, per overflow policy,
//   - the capacity trajectory after every elastic resize,
//   - the overflow counter, and
//   - the conservation identity produced == consumed + dropped + residue.
//
// A second tier runs the real thread host (ThreadPbpl) per backend ×
// overflow policy and checks the identity the runtime keeps exactly even
// under racy stop(): produced == items + dropped().
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/ipc/shm.hpp"
#include "pcpc/queue/handoff.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace pcpc::queue {
namespace {

using core::OverflowPolicy;

constexpr BackendKind kBackends[] = {BackendKind::Mutex, BackendKind::SpscRing,
                                     BackendKind::MpscSeg};
constexpr OverflowPolicy kPolicies[] = {OverflowPolicy::Block,
                                        OverflowPolicy::DropOldest,
                                        OverflowPolicy::DropNewest,
                                        OverflowPolicy::EmergencyBorrow};
constexpr core::WakePolicy kWakePolicies[] = {core::WakePolicy::Pbpl,
                                              core::WakePolicy::PerItem,
                                              core::WakePolicy::OnFull,
                                              core::WakePolicy::Periodic};

const char* policy_name(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::Block: return "Block";
    case OverflowPolicy::DropOldest: return "DropOldest";
    case OverflowPolicy::DropNewest: return "DropNewest";
    case OverflowPolicy::EmergencyBorrow: return "EmergencyBorrow";
  }
  return "?";
}

/// Everything observable about one driver run; two backends agree iff
/// these compare equal field by field.
struct Outcome {
  std::vector<std::uint64_t> consumed;     ///< items drained, in order
  std::vector<std::uint64_t> dropped;      ///< item values lost, in order
  std::vector<std::uint64_t> residue;      ///< items still queued at the end
  std::vector<std::size_t> capacities;     ///< capacity after each resize
  std::uint64_t produced = 0;
  std::uint64_t forced_drains = 0;         ///< Block/Borrow overflow wakeups
  std::uint64_t borrows = 0;               ///< successful emergency upsizes
  std::uint64_t rejected_pushes = 0;       ///< what overflows() must equal
};

/// The reference every backend is diffed against: an unbounded deque
/// whose logical capacity is the whole pool segments it owns, resized
/// under the paper's elastic-wall rule — growth limited by the pool's
/// free segments, shrink never below the live fill (nor one slot), both
/// rounded up to whole segments.  Deliberately shares no storage or
/// admission code with the backends.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(BufferPool<std::uint64_t>& pool)
      : pool_(pool), segments_(pool.grant_base_segments()) {}
  ~ReferenceQueue() { pool_.return_segments(segments_); }

  bool try_push(std::uint64_t item) {
    if (items_.size() >= capacity()) {
      ++overflows_;
      return false;
    }
    items_.push_back(item);
    return true;
  }

  std::optional<std::uint64_t> try_pop() {
    if (items_.empty()) return std::nullopt;
    const std::uint64_t item = items_.front();
    items_.pop_front();
    return item;
  }

  std::size_t resize(std::size_t target) {
    const std::size_t seg = pool_.segment_size();
    const std::size_t want_slots =
        std::max({target, items_.size(), std::size_t{1}});
    const std::size_t want_segments = (want_slots + seg - 1) / seg;
    if (want_segments > segments_) {
      segments_ += pool_.grant_segments(want_segments - segments_);
    } else {
      pool_.return_segments(segments_ - want_segments);
      segments_ = want_segments;
    }
    return capacity();
  }

  std::size_t capacity() const { return segments_ * pool_.segment_size(); }
  std::uint64_t overflows() const { return overflows_; }
  void flush() {}

 private:
  BufferPool<std::uint64_t>& pool_;
  std::size_t segments_;
  std::deque<std::uint64_t> items_;
  std::uint64_t overflows_ = 0;
};

/// Single-threaded driver: one seeded op stream (pushes, partial drains,
/// elastic resizes) against a caller-supplied queue — a Handoff or the
/// ReferenceQueue — applying one overflow policy exactly the way the
/// hosts do.  Taking the queue as a parameter is also what lets the same
/// op stream run against heap-placed and shm-placed storage of the same
/// backend.
template <typename Queue>
void drive_handoff(Queue& handoff, OverflowPolicy policy, std::uint64_t seed,
                   Outcome& out) {
  Queue* queue = &handoff;
  Rng rng(seed);
  std::uint64_t next_item = 1;

  auto push_with_policy = [&](std::uint64_t item) {
    ++out.produced;
    if (queue->try_push(item)) return;
    ++out.rejected_pushes;
    switch (policy) {
      case OverflowPolicy::DropNewest:
        out.dropped.push_back(item);
        return;
      case OverflowPolicy::DropOldest: {
        if (auto victim = queue->try_pop()) out.dropped.push_back(*victim);
        const bool stored = queue->try_push(item);
        ASSERT_TRUE(stored) << "retry after evicting the oldest must succeed";
        return;
      }
      case OverflowPolicy::EmergencyBorrow: {
        const std::size_t cap = queue->capacity();
        queue->resize(cap + std::max<std::size_t>(1, cap / 4));
        out.capacities.push_back(queue->capacity());
        if (queue->try_push(item)) {
          ++out.borrows;
          return;
        }
        ++out.rejected_pushes;
        [[fallthrough]];
      }
      case OverflowPolicy::Block: {
        // The hosts turn a blocked producer into a forced drain (the
        // paper's unscheduled overflow wakeup); single-threaded that is
        // an inline full drain.
        ++out.forced_drains;
        while (auto drained = queue->try_pop()) out.consumed.push_back(*drained);
        const bool stored = queue->try_push(item);
        ASSERT_TRUE(stored) << "push after a full drain must succeed";
        return;
      }
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 70) {
      push_with_policy(next_item++);
    } else if (op < 85) {
      // Partial consumer drain of 1..6 items.
      const std::uint64_t burst = 1 + rng.next_below(6);
      for (std::uint64_t i = 0; i < burst; ++i) {
        auto item = queue->try_pop();
        if (!item) break;
        out.consumed.push_back(*item);
      }
    } else if (op < 95) {
      // Elastic resize toward a random target (the per-invocation
      // downsize/upsize of Section V-C).
      queue->resize(1 + static_cast<std::size_t>(rng.next_below(64)));
      out.capacities.push_back(queue->capacity());
    } else {
      queue->flush();  // SPSC publication batching; no-op elsewhere
    }
  }

  while (auto item = queue->try_pop()) out.residue.push_back(*item);
  EXPECT_EQ(queue->overflows(), out.rejected_pushes);
}

/// Heap-placed run: two consumers' worth of pool so there is headroom to
/// borrow, but only one hand-off — the second share is the free pool the
/// elastic wall moves against.
Outcome drive(BackendKind kind, OverflowPolicy policy, std::uint64_t seed) {
  BufferPool<std::uint64_t> pool(/*consumers=*/2, /*base_capacity=*/24,
                                 /*segment_size=*/8);
  auto queue = make_pool_handoff<std::uint64_t>(kind, pool, /*consumer=*/0);
  Outcome out;
  drive_handoff(*queue, policy, seed, out);
  return out;
}

/// The same run against the reference model.
Outcome drive_reference(OverflowPolicy policy, std::uint64_t seed) {
  BufferPool<std::uint64_t> pool(/*consumers=*/2, /*base_capacity=*/24,
                                 /*segment_size=*/8);
  ReferenceQueue queue(pool);
  Outcome out;
  drive_handoff(queue, policy, seed, out);
  return out;
}

/// Same workload, but the backend's slot array lives in a real
/// MAP_SHARED shared-memory mapping (OffsetSlots placement) — the
/// storage the pcpc::ipc host uses.  Placement must be semantically
/// invisible: heap and shm runs must produce bit-identical outcomes.
Outcome drive_in_shm(BackendKind kind, OverflowPolicy policy, std::uint64_t seed) {
  BufferPool<std::uint64_t> pool(/*consumers=*/2, /*base_capacity=*/24,
                                 /*segment_size=*/8);
  const std::size_t bytes = placed_handoff_bytes(kind, pool);
  const std::string name =
      "/pcpc_diff_" + std::to_string(::getpid()) + "_" + std::to_string(seed);
  std::string error;
  ipc::ShmSegment segment = ipc::ShmSegment::create(name, bytes, &error);
  Outcome out;
  EXPECT_TRUE(segment.valid()) << error;
  if (!segment.valid()) return out;
  auto queue = make_placed_pool_handoff<std::uint64_t>(
      kind, pool, /*consumer=*/0, Placement{segment.payload(), bytes});
  EXPECT_NE(queue, nullptr);
  if (queue != nullptr) drive_handoff(*queue, policy, seed, out);
  queue.reset();  // destroy slots before the mapping goes away
  segment.unlink();
  return out;
}

void expect_same(const Outcome& a, const Outcome& b, const std::string& label) {
  EXPECT_EQ(a.consumed, b.consumed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.residue, b.residue) << label;
  EXPECT_EQ(a.capacities, b.capacities) << label;
  EXPECT_EQ(a.produced, b.produced) << label;
  EXPECT_EQ(a.forced_drains, b.forced_drains) << label;
  EXPECT_EQ(a.borrows, b.borrows) << label;
  EXPECT_EQ(a.rejected_pushes, b.rejected_pushes) << label;
}

TEST(QueueDifferential, BackendsAgreeUnderEveryPolicy) {
  const std::uint64_t kSeeds[] = {1, 42, 0xdecafbadULL, 987654321};
  for (const auto policy : kPolicies) {
    for (const std::uint64_t seed : kSeeds) {
      const Outcome reference = drive_reference(policy, seed);
      // Conservation holds on the reference run itself.
      EXPECT_EQ(reference.produced, reference.consumed.size() +
                                        reference.dropped.size() +
                                        reference.residue.size());
      for (const auto kind : kBackends) {
        std::ostringstream label;
        label << backend_name(kind) << " vs reference, " << policy_name(policy)
              << ", seed " << seed;
        expect_same(reference, drive(kind, policy, seed), label.str());
      }
    }
  }
}

TEST(QueueDifferential, HeapAndShmPlacementsAgreeBitForBit) {
  const std::uint64_t kSeeds[] = {3, 0xfeedULL, 271828};
  for (const auto kind : kBackends) {
    for (const auto policy : kPolicies) {
      for (const std::uint64_t seed : kSeeds) {
        std::ostringstream label;
        label << backend_name(kind) << " heap vs shm, " << policy_name(policy)
              << ", seed " << seed;
        expect_same(drive(kind, policy, seed), drive_in_shm(kind, policy, seed),
                    label.str());
      }
    }
  }
}

TEST(QueueDifferential, LosslessPoliciesDropNothing) {
  for (const auto kind : kBackends) {
    for (const auto policy : {OverflowPolicy::Block, OverflowPolicy::EmergencyBorrow}) {
      const Outcome out = drive(kind, policy, /*seed=*/7);
      EXPECT_TRUE(out.dropped.empty())
          << backend_name(kind) << "/" << policy_name(policy);
      // Lossless means the full produced sequence 1..N comes back out in
      // order: consumed then residue.
      std::vector<std::uint64_t> all = out.consumed;
      all.insert(all.end(), out.residue.begin(), out.residue.end());
      ASSERT_EQ(all.size(), out.produced);
      for (std::uint64_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
    }
  }
}

TEST(QueueDifferential, DroppingPoliciesKeepFifoOfSurvivors) {
  for (const auto kind : kBackends) {
    for (const auto policy : {OverflowPolicy::DropOldest, OverflowPolicy::DropNewest}) {
      const Outcome out = drive(kind, policy, /*seed=*/1234);
      EXPECT_FALSE(out.dropped.empty())
          << "workload too tame to exercise " << policy_name(policy);
      std::vector<std::uint64_t> survivors = out.consumed;
      survivors.insert(survivors.end(), out.residue.begin(), out.residue.end());
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        ASSERT_LT(survivors[i - 1], survivors[i])
            << backend_name(kind) << "/" << policy_name(policy)
            << ": survivors out of FIFO order at index " << i;
      }
    }
  }
}

// --- Varlen tier: the record rings promise the same cross-backend
// determinism at byte granularity.  One seeded op stream (records of
// seeded sizes via reserve/commit or try_push_record, partial claim/
// release drains, elastic byte resizes, policy-driven evictions) runs
// against every VarHandoff kind; the byte trajectories — the (size,
// checksum) sequence of every record consumed, dropped and left as
// residue, plus the capacity walk — must be bit-identical across
// backends × overflow policies and across heap vs shm placement. ------

/// One record's observable identity: payload size and a fold of every
/// payload byte.  Two runs agree iff the full sequences match.
using VarRecordId = std::pair<std::uint32_t, std::uint64_t>;

struct VarOutcome {
  std::vector<VarRecordId> consumed;   ///< records drained, in order
  std::vector<std::uint32_t> dropped;  ///< payload sizes evicted, in order
  std::vector<VarRecordId> residue;    ///< records still ringed at the end
  std::vector<std::size_t> capacities; ///< capacity_bytes after each resize
  std::uint64_t produced_records = 0;
  std::uint64_t produced_bytes = 0;
  std::uint64_t rejected_reserves = 0;
  std::uint64_t forced_drains = 0;
  std::uint64_t borrows = 0;
};

std::uint64_t var_payload_checksum(std::span<const std::byte> payload) {
  std::uint64_t sum = 0x9e3779b97f4a7c15ull + payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    sum = sum * 131 + static_cast<std::uint8_t>(payload[i]);
  }
  return sum;
}

void drive_var_handoff(VarHandoff& handoff, OverflowPolicy policy,
                       std::uint64_t seed, VarOutcome& out) {
  Rng rng(seed);
  std::uint64_t next_seq = 1;

  auto consume_claimed = [&](std::size_t max_records) {
    std::size_t n = 0;
    while (n < max_records) {
      auto view = handoff.claim_front();
      if (!view.has_value()) break;
      out.consumed.emplace_back(
          view->size,
          var_payload_checksum(std::span<const std::byte>(view->data, view->size)));
      ++n;
    }
    if (n > 0) handoff.release_until(handoff.claim_offset());
    return n;
  };

  auto fill = [&](std::byte* dst, std::uint32_t size, std::uint64_t seq) {
    for (std::uint32_t i = 0; i < size; ++i) {
      dst[i] = static_cast<std::byte>(seq * 131 + i);
    }
  };

  auto push_with_policy = [&](std::uint32_t size) {
    const std::uint64_t seq = next_seq++;
    ++out.produced_records;
    out.produced_bytes += size;
    std::vector<std::byte> staging(size);
    const bool zero_copy = rng.next_below(2) == 0;
    auto offer = [&]() -> bool {
      if (zero_copy) {
        VarReservation r;
        if (!handoff.try_reserve(size, r)) return false;
        fill(r.data, size, seq);
        return handoff.commit(r);
      }
      fill(staging.data(), size, seq);
      return handoff.try_push_record(std::span<const std::byte>(staging));
    };
    if (offer()) return;
    ++out.rejected_reserves;
    switch (policy) {
      case OverflowPolicy::DropNewest:
        out.dropped.push_back(size);
        return;
      case OverflowPolicy::DropOldest: {
        // Evict at record granularity until the newcomer fits; when the
        // ring runs out of victims first (a record bigger than all queued
        // bytes), the newcomer itself is the drop (the thread host's
        // rule).
        std::uint64_t footprint = 0;
        std::uint32_t victim = 0;
        for (;;) {
          if (!handoff.drop_oldest(footprint, victim)) {
            out.dropped.push_back(size);
            return;
          }
          out.dropped.push_back(victim);
          if (offer()) return;
          ++out.rejected_reserves;
        }
      }
      case OverflowPolicy::EmergencyBorrow: {
        const std::size_t cap = handoff.capacity_bytes();
        handoff.resize_bytes(cap + std::max<std::size_t>(64, cap / 4));
        out.capacities.push_back(handoff.capacity_bytes());
        if (offer()) {
          ++out.borrows;
          return;
        }
        ++out.rejected_reserves;
        [[fallthrough]];
      }
      case OverflowPolicy::Block: {
        // Single-threaded stand-in for the blocked producer's forced
        // drain: consume everything, then the record must fit.
        ++out.forced_drains;
        consume_claimed(SIZE_MAX);
        const bool stored = offer();
        ASSERT_TRUE(stored) << "push after a full drain must succeed";
        return;
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 65) {
      // Sizes sweep 1..max_record_payload with a bias toward small
      // records so several live in the ring at once.
      const std::uint32_t max_payload = handoff.max_record_payload();
      const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(
          rng.next_below(4) == 0 ? max_payload : 47));
      push_with_policy(size);
    } else if (op < 85) {
      consume_claimed(1 + rng.next_below(4));
    } else {
      // Elastic resize toward a random byte target, never below one
      // max-size record's footprint — the Block policy's "full drain
      // then the record must fit" invariant needs that floor, exactly
      // like the item pools never shrink below one slot.
      const std::size_t floor_bytes = static_cast<std::size_t>(
          var_record_bytes(handoff.max_record_payload()));
      handoff.resize_bytes(floor_bytes + 64 * rng.next_below(24));
      out.capacities.push_back(handoff.capacity_bytes());
    }
  }

  // Whatever is still ringed at the end is the residue trajectory.
  for (;;) {
    auto view = handoff.claim_front();
    if (!view.has_value()) break;
    out.residue.emplace_back(
        view->size,
        var_payload_checksum(std::span<const std::byte>(view->data, view->size)));
  }
  handoff.release_until(handoff.claim_offset());
}

/// Heap-placed varlen run.
VarOutcome var_drive(BackendKind kind, OverflowPolicy policy, std::uint64_t seed) {
  auto handoff = make_var_handoff(kind, /*capacity_bytes=*/1 << 10,
                                  /*max_bytes=*/4 << 10, /*max_record_payload=*/256);
  VarOutcome out;
  drive_var_handoff(*handoff, policy, seed, out);
  EXPECT_EQ(handoff->overflows(), out.rejected_reserves);
  return out;
}

/// Same workload with the ring storage in a real MAP_SHARED mapping.
VarOutcome var_drive_in_shm(BackendKind kind, OverflowPolicy policy,
                            std::uint64_t seed) {
  const std::size_t bytes =
      placed_var_handoff_bytes(kind, /*max_bytes=*/4 << 10, /*max_record_payload=*/256);
  const std::string name =
      "/pcpc_vdiff_" + std::to_string(::getpid()) + "_" + std::to_string(seed);
  std::string error;
  ipc::ShmSegment segment = ipc::ShmSegment::create(name, bytes, &error);
  VarOutcome out;
  EXPECT_TRUE(segment.valid()) << error;
  if (!segment.valid()) return out;
  auto handoff = make_placed_var_handoff(kind, /*capacity_bytes=*/1 << 10,
                                         /*max_bytes=*/4 << 10,
                                         /*max_record_payload=*/256,
                                         Placement{segment.payload(), bytes});
  EXPECT_NE(handoff, nullptr);
  if (handoff != nullptr) {
    drive_var_handoff(*handoff, policy, seed, out);
    EXPECT_EQ(handoff->overflows(), out.rejected_reserves);
  }
  handoff.reset();  // destroy the ring before the mapping goes away
  segment.unlink();
  return out;
}

void expect_same_var(const VarOutcome& a, const VarOutcome& b,
                     const std::string& label) {
  EXPECT_EQ(a.consumed, b.consumed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.residue, b.residue) << label;
  EXPECT_EQ(a.capacities, b.capacities) << label;
  EXPECT_EQ(a.produced_records, b.produced_records) << label;
  EXPECT_EQ(a.produced_bytes, b.produced_bytes) << label;
  EXPECT_EQ(a.rejected_reserves, b.rejected_reserves) << label;
  EXPECT_EQ(a.forced_drains, b.forced_drains) << label;
  EXPECT_EQ(a.borrows, b.borrows) << label;
}

TEST(QueueDifferential, VarlenBackendsAgreeUnderEveryPolicy) {
  const std::uint64_t kSeeds[] = {1, 42, 0xdecafbadULL, 987654321};
  for (const auto policy : kPolicies) {
    for (const std::uint64_t seed : kSeeds) {
      const VarOutcome reference = var_drive(BackendKind::Mutex, policy, seed);
      // Byte conservation holds on the reference run itself.
      std::uint64_t consumed_bytes = 0;
      for (const auto& [size, sum] : reference.consumed) consumed_bytes += size;
      std::uint64_t dropped_bytes = 0;
      for (const auto size : reference.dropped) dropped_bytes += size;
      std::uint64_t residue_bytes = 0;
      for (const auto& [size, sum] : reference.residue) residue_bytes += size;
      EXPECT_EQ(reference.produced_bytes,
                consumed_bytes + dropped_bytes + residue_bytes)
          << policy_name(policy) << ", seed " << seed;
      for (const auto kind : kBackends) {
        if (kind == BackendKind::Mutex) continue;
        std::ostringstream label;
        label << "varlen " << backend_name(kind) << " vs mutex, "
              << policy_name(policy) << ", seed " << seed;
        expect_same_var(reference, var_drive(kind, policy, seed), label.str());
      }
    }
  }
}

TEST(QueueDifferential, VarlenHeapAndShmPlacementsAgreeBitForBit) {
  const std::uint64_t kSeeds[] = {3, 0xfeedULL, 271828};
  for (const auto kind : kBackends) {
    for (const auto policy : kPolicies) {
      for (const std::uint64_t seed : kSeeds) {
        std::ostringstream label;
        label << "varlen " << backend_name(kind) << " heap vs shm, "
              << policy_name(policy) << ", seed " << seed;
        expect_same_var(var_drive(kind, policy, seed),
                        var_drive_in_shm(kind, policy, seed), label.str());
      }
    }
  }
}

TEST(QueueDifferential, VarlenLosslessPoliciesDropNothing) {
  for (const auto kind : kBackends) {
    for (const auto policy :
         {OverflowPolicy::Block, OverflowPolicy::EmergencyBorrow}) {
      const VarOutcome out = var_drive(kind, policy, /*seed=*/7);
      EXPECT_TRUE(out.dropped.empty())
          << backend_name(kind) << "/" << policy_name(policy);
      EXPECT_EQ(out.consumed.size() + out.residue.size(), out.produced_records)
          << backend_name(kind) << "/" << policy_name(policy);
    }
  }
}

// --- Tier 2: the real thread host keeps produced == items + dropped()
// exactly, per backend × overflow policy × wake policy, with concurrent
// producers. -------------------------------------------------------------

core::PbplConfig runtime_config(BackendKind kind, OverflowPolicy policy,
                                core::WakePolicy wake = core::WakePolicy::Pbpl) {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 8;
  config.overflow_policy = policy;
  config.queue_backend = kind;
  config.wake_policy = wake;
  return config;
}

TEST(QueueDifferential, ThreadHostConservesItemsPerBackendAndPolicy) {
  constexpr std::size_t kConsumers = 2;
  constexpr std::size_t kProducersPerConsumer = 2;
  constexpr std::uint64_t kItems = 400;
  for (const auto kind : kBackends) {
    for (const auto policy : kPolicies) {
      for (const auto wake : kWakePolicies) {
        // The SPSC ring's contract is one producer thread per consumer.
        const std::size_t producers =
            kind == BackendKind::SpscRing ? 1 : kProducersPerConsumer;
        runtime::ThreadPbpl host(kConsumers, runtime_config(kind, policy, wake));
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kConsumers; ++c) {
          for (std::size_t p = 0; p < producers; ++p) {
            threads.emplace_back([&host, c] {
              for (std::uint64_t i = 0; i < kItems; ++i) host.produce(c);
            });
          }
        }
        for (auto& t : threads) t.join();
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        host.stop();
        const auto stats = host.stats();
        const std::string label = std::string(backend_name(kind)) + "/" +
                                  policy_name(policy) + "/wake" +
                                  std::to_string(static_cast<int>(wake));
        EXPECT_EQ(stats.produced, kConsumers * producers * kItems) << label;
        EXPECT_EQ(stats.produced, stats.items + stats.dropped()) << label;
        if (policy == OverflowPolicy::Block || policy == OverflowPolicy::EmergencyBorrow) {
          // Lossless policies may only lose items to the stop() race, and
          // those are accounted as dropped_on_stop — never silently.
          EXPECT_EQ(stats.dropped_oldest, 0u) << label;
          EXPECT_EQ(stats.dropped_newest, 0u) << label;
        }
      }
    }
  }
}

TEST(QueueDifferential, BaselineHostConservesItemsPerBackend) {
  constexpr std::size_t kPairs = 2;
  constexpr std::uint64_t kItems = 300;
  for (const auto kind : kBackends) {
    for (const auto wake : {core::WakePolicy::PerItem, core::WakePolicy::OnFull}) {
      core::PbplConfig config;
      config.cores = kPairs;
      config.base_buffer = 16;
      config.pool_segment = 8;
      config.queue_backend = kind;
      config.wake_policy = wake;
      runtime::ThreadPbpl host(kPairs, config);
      std::vector<std::thread> producers;
      for (std::size_t pair = 0; pair < kPairs; ++pair) {
        producers.emplace_back([&host, pair] {
          for (std::uint64_t i = 0; i < kItems; ++i) host.produce(pair);
        });
      }
      for (auto& t : producers) t.join();
      host.stop();
      // Baselines block producers instead of dropping: every item lands.
      EXPECT_EQ(host.stats().items, kPairs * kItems) << backend_name(kind);
    }
  }
}

}  // namespace
}  // namespace pcpc::queue
