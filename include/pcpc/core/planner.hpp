// The PBPL consumer's control loop (Section V-C), shared by every host.
//
// After each activation a consumer (1) feeds the drained batch to its
// rate predictor and latency guard, (2) reserves the ρ-minimising slot —
// latching onto an already-scheduled wakeup when that is cheaper per
// item — and (3) resizes its buffer to the predicted batch.  The planner
// owns the state behind those steps (predictor, optional LatencyGuard,
// last invocation, last batch) and runs the predict → SlotQuery → guard
// scaling → choose_slot/fill_slot → resize → re-choose sequence.  It is
// pure: the host supplies the slot track, the reservation table, the
// capacity view and the resize operation, and books the returned slot,
// its stats and its obs events itself.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "pcpc/common/types.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/latency_guard.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"

namespace pcpc::core {

/// One consumer's planning state and decision procedure.
class Planner {
 public:
  /// Builds the predictor (and the guard when config.latency_guard) from
  /// `config`, which must outlive the planner.
  explicit Planner(const PbplConfig& config);

  /// Anchors the first observed interval at `now`; call before the first
  /// plan().
  void start(SimTime now) { last_invocation_ = now; }

  /// Records one drained item's latency (feeds the guard, if any).
  void observe_latency(SimDuration latency) {
    if (guard_) guard_->observe(latency);
  }

  /// Closes a drained batch of `batch` items at `now`: closes the guard's
  /// batch, feeds the observed rate r_j = |γ(τ_{j-1}, τ_j)| / (τ_j − τ_{j-1})
  /// to the predictor and remembers a non-empty batch as the resize
  /// floor.  Returns the guard violations this batch added.
  std::uint64_t end_batch(SimTime now, std::size_t batch);

  /// Chooses the next reservation slot for a consumer holding `capacity`
  /// items (the prospective capacity: with dynamic resizing, what the
  /// buffer holds plus what the pool could lend).  With dynamic resizing
  /// and a nonzero prediction it calls `resize(target)` once — `resize`
  /// returns the items actually granted — and re-chooses with the grant
  /// when the pool came up short.  The caller books the returned slot.
  template <typename Resize>
  SlotChoice plan(SimTime now, const SlotTrack& track, const ReservationTable& reservations,
                  std::size_t capacity, Resize&& resize) {
    SlotQuery query = query_for(now, capacity);
    SlotChoice choice = choose(track, reservations, query);
    if (config_.dynamic_resize && choice.expected_items > 0.0) {
      // Downsize to (or upsize toward) the predicted batch plus headroom:
      //   B_i = headroom · r̂·(τ_next − τ_now), clamped by the pool
      //   (Section V-C).  Floored at the last real batch so a lagging
      //   moving average cannot shrink the buffer below what the producer
      //   demonstrably delivers (that feedback loop turns one burst into an
      //   overflow cascade).  A zero prediction skips resizing entirely —
      //   no information is no reason to give the space back.
      const auto target = static_cast<std::size_t>(
          std::ceil(choice.expected_items * config_.resize_headroom));
      const std::size_t granted = resize(std::max<std::size_t>(target, last_batch_));
      if (static_cast<double>(granted) < choice.expected_items) {
        // The pool could not lend enough: re-choose with what we actually
        // hold, which pulls the reservation earlier.
        query.buffer_capacity = granted;
        choice = choose(track, reservations, query);
      }
    }
    return choice;
  }

  const RatePredictor& predictor() const { return *predictor_; }

  /// The adaptive latency guard; present only when config.latency_guard.
  const LatencyGuard* guard() const { return guard_ ? &*guard_ : nullptr; }

 private:
  SlotQuery query_for(SimTime now, std::size_t capacity) const;
  SlotChoice choose(const SlotTrack& track, const ReservationTable& reservations,
                    const SlotQuery& query) const;

  const PbplConfig& config_;
  std::unique_ptr<RatePredictor> predictor_;
  std::optional<LatencyGuard> guard_;
  SimTime last_invocation_ = 0;
  std::size_t last_batch_ = 1;
  std::uint64_t violations_seen_ = 0;
};

}  // namespace pcpc::core
