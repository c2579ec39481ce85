#include "pcpc/core/planner.hpp"

namespace pcpc::core {

Planner::Planner(const PbplConfig& config)
    : config_(config), predictor_(make_predictor(config.predictor, config.predictor_window)) {
  if (config.latency_guard) guard_.emplace(config.max_latency);
}

std::uint64_t Planner::end_batch(SimTime now, std::size_t batch) {
  std::uint64_t violations = 0;
  if (guard_) {
    guard_->end_batch();
    violations = guard_->violations() - violations_seen_;
    violations_seen_ = guard_->violations();
  }
  if (batch > 0) last_batch_ = batch;
  if (now > last_invocation_) {
    predictor_->observe(static_cast<double>(batch) / to_seconds(now - last_invocation_));
    last_invocation_ = now;
  }
  return violations;
}

SlotQuery Planner::query_for(SimTime now, std::size_t capacity) const {
  SlotQuery query{now, predictor_->predict(), std::max<std::size_t>(capacity, 1),
                  config_.max_latency, config_.fill_tolerance};
  if (guard_) {
    // Feedback control: a violated deadline shrinks both the fill horizon
    // and the zero-rate poll horizon until the latency profile recovers.
    query.fill_tolerance *= guard_->horizon_scale();
    query.max_latency = std::max<SimDuration>(
        config_.resolved_slot_size(),
        static_cast<SimDuration>(static_cast<double>(config_.max_latency) *
                                 guard_->horizon_scale()));
  }
  return query;
}

SlotChoice Planner::choose(const SlotTrack& track, const ReservationTable& reservations,
                           const SlotQuery& query) const {
  return config_.latching ? choose_slot(track, reservations, query, config_.costs)
                          : fill_slot(track, query, config_.costs);
}

}  // namespace pcpc::core
