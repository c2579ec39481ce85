// Integration tests of the assembled PBPL system (Figure 5).
#include <gtest/gtest.h>

#include <vector>

#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/trace/webserver_log.hpp"

namespace pcpc::core {
namespace {

PbplConfig test_config() {
  PbplConfig c;
  c.cores = 2;
  c.slot_size = milliseconds(10);
  c.max_latency = milliseconds(100);
  c.base_buffer = 25;
  c.pool_segment = 5;
  return c;
}

std::vector<trace::Trace> uniform_producers(std::size_t count, double rate_hz,
                                            SimDuration horizon) {
  std::vector<trace::Trace> traces;
  const auto gap = static_cast<SimDuration>(1e9 / rate_hz);
  const auto items = static_cast<std::size_t>(to_seconds(horizon) * rate_hz);
  for (std::size_t i = 0; i < count; ++i) {
    traces.push_back(trace::uniform_trace(items, gap, static_cast<SimTime>(i) * 100));
  }
  return traces;
}

TEST(PbplSystem, ConsumesEveryItem) {
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), test_config());
  std::size_t expected = 0;
  for (const auto& t : traces) expected += t.size();
  EXPECT_EQ(result.items, expected);
}

TEST(PbplSystem, RejectsBaselineWakePolicies) {
  // The baselines are thread-host wake policies; the sim host must not
  // silently run PBPL under their name.
  auto config = test_config();
  config.wake_policy = WakePolicy::OnFull;
  const auto traces = uniform_producers(1, 100.0, milliseconds(100));
  EXPECT_DEATH(run_pbpl(traces, milliseconds(100), config), "wake_policy");
}

TEST(PbplSystem, TimelinesMatchCoresAndHorizon) {
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), test_config());
  ASSERT_EQ(result.timelines.size(), 2u);
  for (const auto& t : result.timelines) {
    EXPECT_TRUE(t.finalized());
    EXPECT_GE(t.duration(), seconds(1));
    EXPECT_LE(t.active_time(), t.duration());
    EXPECT_GT(t.wakeups(), 0u);
  }
}

TEST(PbplSystem, DeterministicAcrossRuns) {
  const auto traces = uniform_producers(3, 1500.0, seconds(1));
  const PbplResult a = run_pbpl(traces, seconds(1), test_config());
  const PbplResult b = run_pbpl(traces, seconds(1), test_config());
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.scheduled_wakeups, b.scheduled_wakeups);
  EXPECT_EQ(a.overflow_wakeups, b.overflow_wakeups);
  EXPECT_EQ(a.paid_wakeups, b.paid_wakeups);
  EXPECT_DOUBLE_EQ(a.latency_s.mean(), b.latency_s.mean());
}

TEST(PbplSystem, PaidWakeupsNeverExceedRaisedWakeups) {
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), test_config());
  EXPECT_LE(result.paid_wakeups, result.scheduled_wakeups + result.overflow_wakeups);
  EXPECT_GT(result.scheduled_wakeups, 0u);
}

TEST(PbplSystem, LatchingHappensWithSharedCores) {
  auto config = test_config();
  config.cores = 1;  // everyone shares one slot track
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), config);
  EXPECT_GT(result.latched_reservations, result.reservations / 4);
}

TEST(PbplSystem, NoLatchingPossibleWithOneConsumerPerCore) {
  auto config = test_config();
  config.cores = 2;
  const auto traces = uniform_producers(2, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), config);
  EXPECT_EQ(result.latched_reservations, 0u);
}

TEST(PbplSystem, LatchingReducesWakeupsOnWebWorkload) {
  trace::WebWorkloadParams w;
  w.duration = seconds(2);
  w.base_rate_hz = 2000.0;
  const auto traces = trace::make_shifted_workloads(w, 6);

  auto with = test_config();
  with.cores = 1;
  auto without = with;
  without.latching = false;

  const PbplResult latched = run_pbpl(traces, seconds(2), with);
  const PbplResult unlatched = run_pbpl(traces, seconds(2), without);
  EXPECT_EQ(latched.items, unlatched.items);
  EXPECT_LT(latched.paid_wakeups, unlatched.paid_wakeups);
}

TEST(PbplSystem, MeanLatencyStaysReasonable) {
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  auto config = test_config();
  const PbplResult result = run_pbpl(traces, seconds(1), config);
  // Items wait at most roughly a buffer-fill (12.5 ms at B=25, 2 kHz).
  EXPECT_LT(result.latency_s.mean(), 0.030);
  EXPECT_GT(result.latency_s.mean(), 0.0005);
}

TEST(PbplSystem, BufferCapacityMetricIsPopulated) {
  const auto traces = uniform_producers(5, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), test_config());
  EXPECT_GT(result.buffer_capacity.count(), 0u);
  EXPECT_GT(result.buffer_capacity.mean(), 0.0);
  EXPECT_LE(result.buffer_capacity.mean(), 25.0 * 5);
}

TEST(PbplSystem, EmptyTraceProducesNoItems) {
  std::vector<trace::Trace> traces(2);
  const PbplResult result = run_pbpl(traces, seconds(1), test_config());
  EXPECT_EQ(result.items, 0u);
  // The consumers still poll at the latency horizon.
  EXPECT_GT(result.scheduled_wakeups, 0u);
  EXPECT_EQ(result.overflow_wakeups, 0u);
}

TEST(PbplSystem, KalmanPredictorRunsEndToEnd) {
  auto config = test_config();
  config.predictor = PredictorKind::Kalman;
  const auto traces = uniform_producers(3, 2000.0, seconds(1));
  const PbplResult result = run_pbpl(traces, seconds(1), config);
  EXPECT_EQ(result.items, traces[0].size() * 3);
}

TEST(PbplSystem, SlotSizeDefaultsToLatencyBound) {
  auto config = test_config();
  config.slot_size = 0;
  config.max_latency = milliseconds(7);
  EXPECT_EQ(config.resolved_slot_size(), milliseconds(7));
}

TEST(PbplSystem, RoundRobinCoreAssignment) {
  sim::Simulator sim;
  auto config = test_config();
  config.cores = 3;
  PbplSystem system(sim, 7, config);
  EXPECT_EQ(system.core_count(), 3u);
  EXPECT_EQ(system.manager(0).consumer_count(), 3u);  // consumers 0, 3, 6
  EXPECT_EQ(system.manager(1).consumer_count(), 2u);
  EXPECT_EQ(system.manager(2).consumer_count(), 2u);
}

}  // namespace
}  // namespace pcpc::core
