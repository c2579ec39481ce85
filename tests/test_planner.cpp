// Tests for core::Planner, the PBPL control loop both the simulation and
// the thread host run (Section V-C): latching, dynamic resizing, the
// latency guard's horizon scaling, the short-grant re-choose, the
// zero-prediction and last-batch rules, and one golden decision sequence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "pcpc/core/planner.hpp"

namespace pcpc::core {
namespace {

PbplConfig planner_config() {
  PbplConfig c;
  c.slot_size = milliseconds(10);
  c.max_latency = milliseconds(100);
  c.predictor_window = 4;
  return c;
}

/// A resize callable that grants `grant` items (or the request when
/// unset) and remembers what it was asked for.
struct FakeResize {
  std::optional<std::size_t> grant;
  std::vector<std::size_t> asked;
  std::size_t operator()(std::size_t target) {
    asked.push_back(target);
    return grant.value_or(target);
  }
};

struct PlannerFixture : ::testing::Test {
  SlotTrack track{milliseconds(10)};
  ReservationTable reservations;

  /// A planner that observed `rate` items/s over the first 100 ms.
  static Planner warmed(const PbplConfig& config, double rate) {
    Planner planner(config);
    planner.start(0);
    planner.end_batch(milliseconds(100), static_cast<std::size_t>(rate / 10.0));
    return planner;
  }
};

TEST_F(PlannerFixture, ZeroPredictionPollsAtTheHorizonWithoutResizing) {
  const PbplConfig config = planner_config();
  Planner planner(config);
  planner.start(0);
  FakeResize resize;
  const SlotChoice choice = planner.plan(0, track, reservations, 25, resize);
  EXPECT_EQ(choice.slot, 10);  // g(0 + L)
  EXPECT_FALSE(choice.latched);
  EXPECT_TRUE(resize.asked.empty());  // no information, no resize
}

TEST_F(PlannerFixture, LatchesOntoAReservedSlotOnlyWhenLatchingIsOn) {
  PbplConfig config = planner_config();
  reservations.reserve(/*consumer=*/7, /*slot=*/15);
  const SimTime now = milliseconds(100);
  FakeResize resize;

  Planner latching = warmed(config, 1000.0);
  const SlotChoice latched = latching.plan(now, track, reservations, 1000, resize);
  EXPECT_TRUE(latched.latched);
  EXPECT_EQ(latched.slot, 15);

  config.latching = false;
  Planner fill = warmed(config, 1000.0);
  const SlotChoice alone = fill.plan(now, track, reservations, 1000, resize);
  EXPECT_FALSE(alone.latched);
  EXPECT_GT(alone.slot, 15);
}

TEST_F(PlannerFixture, DynamicResizeAsksForThePredictedBatchPlusHeadroom) {
  PbplConfig config = planner_config();
  const SimTime now = milliseconds(100);
  Planner planner = warmed(config, 1000.0);
  FakeResize resize;
  const SlotChoice choice = planner.plan(now, track, reservations, 1000, resize);
  ASSERT_EQ(resize.asked.size(), 1u);
  // The planned batch plus 25% headroom tops the warm-up batch (100),
  // so the request is the headroom target itself.
  const auto target =
      static_cast<std::size_t>(std::ceil(choice.expected_items * config.resize_headroom));
  EXPECT_GT(target, 100u);
  EXPECT_EQ(resize.asked[0], target);

  config.dynamic_resize = false;
  Planner fixed = warmed(config, 1000.0);
  FakeResize untouched;
  const SlotChoice same = fixed.plan(now, track, reservations, 1000, untouched);
  EXPECT_TRUE(untouched.asked.empty());
  EXPECT_EQ(same.slot, choice.slot);
}

TEST_F(PlannerFixture, ShortPoolGrantReChoosesWithTheGrantedCapacity) {
  const PbplConfig config = planner_config();
  const SimTime now = milliseconds(100);
  // Plenty of prospective capacity: the first choice plans a long batch.
  Planner full = warmed(config, 1000.0);
  FakeResize generous;
  const SlotChoice planned = full.plan(now, track, reservations, 1000, generous);

  // The pool lends only 10 items: the planner must pull the slot in to
  // what 10 items can cover, exactly as if it had planned with 10.
  Planner short_grant = warmed(config, 1000.0);
  FakeResize stingy{10, {}};
  const SlotChoice rechosen = short_grant.plan(now, track, reservations, 1000, stingy);
  ASSERT_EQ(stingy.asked.size(), 1u);
  EXPECT_LT(rechosen.slot, planned.slot);

  PbplConfig no_resize = config;
  no_resize.dynamic_resize = false;
  Planner reference = warmed(no_resize, 1000.0);
  FakeResize unused;
  EXPECT_EQ(rechosen.slot, reference.plan(now, track, reservations, 10, unused).slot);
}

TEST_F(PlannerFixture, ResizeIsFlooredAtTheLastRealBatch) {
  const PbplConfig config = planner_config();
  Planner planner(config);
  planner.start(0);
  planner.end_batch(milliseconds(100), 40);  // 400 items/s, batch of 40
  FakeResize resize;
  const SimTime now = milliseconds(100);
  const SlotChoice choice = planner.plan(now, track, reservations, 10, resize);
  ASSERT_EQ(resize.asked.size(), 1u);
  EXPECT_LT(std::ceil(choice.expected_items * config.resize_headroom), 40.0);
  EXPECT_EQ(resize.asked[0], 40u);

  // An empty batch does not lower the floor.
  planner.end_batch(milliseconds(110), 0);
  FakeResize again;
  planner.plan(milliseconds(110), track, reservations, 10, again);
  ASSERT_EQ(again.asked.size(), 1u);
  EXPECT_EQ(again.asked[0], 40u);
}

TEST_F(PlannerFixture, GuardViolationShrinksTheHorizon) {
  PbplConfig config = planner_config();
  config.latency_guard = true;
  Planner planner(config);
  planner.start(0);
  ASSERT_NE(planner.guard(), nullptr);
  FakeResize resize;
  EXPECT_EQ(planner.plan(0, track, reservations, 25, resize).slot, 10);

  // One late item in an otherwise empty batch: end_batch reports the new
  // violation once, and the zero-rate poll horizon halves.
  planner.observe_latency(config.max_latency + 1);
  planner.observe_latency(0);
  EXPECT_EQ(planner.end_batch(0, 0), 1u);
  EXPECT_EQ(planner.plan(0, track, reservations, 25, resize).slot, 5);
  EXPECT_EQ(planner.end_batch(0, 0), 0u);  // a clean batch adds none

  // With a rate, the buffer-fill horizon shrinks too: 1000/s into 25
  // items plans ~29 ms ahead, a violated batch halves that.
  Planner busy = warmed(config, 1000.0);
  const SimTime now = milliseconds(100);
  const SlotIndex relaxed = busy.plan(now, track, reservations, 25, resize).slot;
  busy.observe_latency(config.max_latency + 1);
  EXPECT_EQ(busy.end_batch(now, 0), 1u);
  EXPECT_LT(busy.plan(now, track, reservations, 25, resize).slot, relaxed);

  // Without the guard the same inputs leave the horizon alone.
  const PbplConfig plain = planner_config();
  Planner unguarded(plain);
  unguarded.start(0);
  EXPECT_EQ(unguarded.guard(), nullptr);
  unguarded.observe_latency(config.max_latency + 1);
  EXPECT_EQ(unguarded.end_batch(0, 0), 0u);
  EXPECT_EQ(unguarded.plan(0, track, reservations, 25, resize).slot, 10);
}

// Golden decision sequence, recorded from the simulation host's
// PbplConsumer before the planner was extracted from it.  Scenario: one
// core, three consumers (10 ms slots, L = 40 ms, B0 = 20, 5-item pool
// segments, window 4, latency guard on); consumer 0 runs 400/s then
// 60/s, consumer 1 trickles at 20/s with two 15-item bursts, consumer 2
// sleeps then floods at 3000/s.  Each step is one reservation: its
// inputs (drained batch, late items, prospective capacity, pool grant)
// and the decisions (resize target, slot, latched).  Replaying the
// inputs through the planner must reproduce every decision — the thread
// host runs this same code.
struct GoldenStep {
  ConsumerId consumer;
  std::int64_t now_us;
  int batch;  ///< -1: the initial reservation (start)
  int late;   ///< drained items past L
  std::size_t capacity;
  std::size_t target;   ///< resize request; 0 = no resize
  std::size_t granted;
  SlotIndex slot;
  bool latched;
};

constexpr GoldenStep kGolden[] = {
    {0, 0, -1, 0, 20, 0, 0, 4, false},
    {1, 0, -1, 0, 20, 0, 0, 4, true},
    {2, 0, -1, 0, 20, 0, 0, 4, true},
    {0, 40000, 16, 0, 20, 20, 20, 8, false},
    {1, 40000, 1, 0, 20, 2, 5, 8, true},
    {2, 40000, 0, 0, 35, 0, 0, 8, true},
    {0, 80000, 16, 0, 35, 20, 20, 12, false},
    {1, 80000, 1, 0, 20, 2, 5, 12, true},
    {2, 80000, 0, 0, 35, 0, 0, 12, true},
    {2, 111655, 35, 0, 35, 35, 35, 12, true},
    {0, 120000, 16, 0, 20, 20, 20, 16, false},
    {1, 120000, 1, 0, 5, 2, 5, 16, true},
    {2, 120000, 26, 0, 35, 40, 35, 15, false},
    {1, 121500, 5, 0, 5, 10, 5, 13, false},
    {1, 122000, 5, 0, 5, 34, 5, 13, false},
    {1, 130000, 5, 0, 5, 44, 5, 14, false},
    {2, 131968, 35, 0, 35, 35, 35, 14, true},
    {1, 140000, 0, 0, 5, 44, 5, 15, false},
    {2, 140000, 25, 0, 35, 33, 35, 15, true},
    {1, 150000, 0, 0, 5, 34, 5, 16, true},
    {2, 150000, 30, 0, 35, 38, 35, 16, true},
    {0, 160000, 13, 0, 20, 20, 20, 20, false},
    {1, 160000, 1, 0, 5, 7, 5, 19, false},
    {2, 160000, 30, 0, 35, 38, 35, 17, false},
    {2, 170000, 30, 0, 35, 38, 35, 18, false},
    {2, 180000, 30, 0, 35, 38, 35, 19, true},
    {1, 190000, 0, 0, 5, 3, 5, 27, false},
    {2, 190000, 30, 0, 35, 38, 35, 20, true},
    {0, 200000, 2, 0, 20, 15, 15, 24, false},
    {2, 200000, 30, 0, 40, 38, 40, 21, false},
    {2, 210000, 0, 0, 40, 57, 40, 23, false},
    {2, 230000, 0, 0, 40, 30, 30, 24, true},
    {1, 234400, 15, 0, 15, 15, 15, 28, false},
    {0, 240000, 3, 0, 15, 11, 15, 28, true},
    {2, 240000, 0, 0, 30, 38, 30, 28, true},
    {1, 280000, 2, 1, 15, 4, 5, 30, false},
    {0, 280000, 2, 0, 25, 4, 5, 30, true},
    {2, 280000, 0, 0, 50, 0, 0, 30, true},
    {1, 300000, 0, 0, 25, 4, 5, 33, false},
    {0, 300000, 1, 0, 25, 3, 5, 33, true},
    {2, 300000, 0, 0, 50, 0, 0, 33, true},
};

TEST(PlannerGolden, ReplaysTheSimulationHostsDecisions) {
  PbplConfig config;
  config.cores = 1;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(40);
  config.base_buffer = 20;
  config.pool_segment = 5;
  config.predictor_window = 4;
  config.latency_guard = true;
  const SlotTrack track(config.resolved_slot_size());
  ReservationTable reservations;
  std::vector<Planner> planners;
  planners.reserve(3);
  for (int i = 0; i < 3; ++i) planners.emplace_back(config);

  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenStep& step = kGolden[i];
    SCOPED_TRACE(testing::Message() << "step " << i);
    const SimTime now = microseconds(step.now_us);
    // The core manager takes every slot that fired by `now`; an
    // unscheduled (overflow) invocation drops the consumer's own slot.
    while (const auto due = reservations.next_reserved(std::numeric_limits<SlotIndex>::min())) {
      if (track.start_of(*due) > now) break;
      reservations.take_slot(*due);
    }
    reservations.cancel(step.consumer);

    Planner& planner = planners[step.consumer];
    if (step.batch < 0) {
      planner.start(now);
    } else {
      for (int item = 0; item < step.batch; ++item) {
        planner.observe_latency(item < step.late ? config.max_latency + 1 : 0);
      }
      EXPECT_EQ(planner.end_batch(now, static_cast<std::size_t>(step.batch)),
                static_cast<std::uint64_t>(step.late));
    }
    FakeResize resize{step.granted, {}};
    const SlotChoice choice =
        planner.plan(now, track, reservations, step.capacity, resize);
    if (step.target == 0) {
      EXPECT_TRUE(resize.asked.empty());
    } else {
      ASSERT_EQ(resize.asked.size(), 1u);
      EXPECT_EQ(resize.asked[0], step.target);
    }
    EXPECT_EQ(choice.slot, step.slot);
    EXPECT_EQ(choice.latched, step.latched);
    reservations.reserve(step.consumer, choice.slot);
  }
}

}  // namespace
}  // namespace pcpc::core
