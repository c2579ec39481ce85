// In-ring variable-size records: reserve/commit producers, scatter-free
// consumers.
//
// ROADMAP item 1: the fixed-size item queues force every real payload
// (request body, sensor frame) through a copy between the producer's
// write and the handler's read.  This header carves length-prefixed
// records *directly out of the ring storage* instead:
//
//   VarReservation r;
//   ring.try_reserve(bytes, r);      // claim bytes in the ring
//   fill(r.data, r.size);            // write the payload ONCE, in place
//   ring.commit(r);                  // publish to the consumer
//   ...
//   ring.drain([](std::span<const std::byte> p) { read(p); });  // in place
//
// Record layout (all offsets 8-byte aligned):
//
//   [ header word ][ payload … ][ pad to 8 ]
//
// The header is ONE 64-bit word — state (8 bits) | owner+1 (16 bits) |
// payload size (32 bits) — so every state transition is a single atomic
// store/CAS, which is what makes the cross-process lease protocol (a
// reaper reclaiming a dead producer's reservation races the zombie's
// commit) a one-word CAS exactly like the ipc slot protocol.
//
// Wrap-padding rule: a record never straddles the physical end of the
// ring.  A claim that would cross publishes the tail gap as a *padding
// record* (consumers skip it) and the real record starts at offset 0.
// Because every claim and the ring size are 8-byte aligned, the gap is
// always >= 8 bytes, so the padding header always fits.
//
// Capacity is *logical* and counted in record footprint bytes (header +
// aligned payload, padding excluded), so elastic resizing keeps working
// at byte granularity; the physical ring is sized with a 4x-max-record
// margin which bounds the padding + in-flight claims that live outside
// the logical account (see physical_bytes()).
//
// Two rings share the format:
//
//   - VarSpscRing: Torquati discipline — producer-private tail, cached
//     released-counter refreshed only on apparent-full, zero RMW on the
//     hot path.  Publication is batched per commit (optionally eager at
//     reserve for the crash-safe shm plane, where claims must be
//     recoverable by a reaper).
//   - VarMpscRing: Jiffy discipline — admission is one fetch_add on a
//     byte counter, the position claim is one fetch_add on a byte
//     ticket.  A claim that would cross the physical end cannot hold a
//     contiguous record, so its owner publishes the whole claim as
//     padding and re-claims (at most one crossing per ring revolution;
//     the hot path stays FAA-only, the crossing path is lock-free).
//
// Consumer side is two-cursor: claim_front() hands out an in-ring view
// and advances the *claim* cursor; release_until() later returns the
// bytes to producers.  The gap is what lets a host run handlers on
// zero-copy views outside its lock while overflow policies (drop-oldest
// = mark-reclaim at the claim cursor) keep operating on the same ring.
//
// Thread contract: VarSpscRing — reserve/commit/try_push_record from one
// producer at a time; VarMpscRing — any number of producers.  Both:
// claim_front/drop_oldest/release_until/resize from one consumer at a
// time, except that release_until(target) may run concurrently with
// claim-cursor operations above `target` (disjoint byte ranges; the
// hosts exploit exactly this split).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "pcpc/common/assert.hpp"
#include "pcpc/queue/placement.hpp"

namespace pcpc::queue {

inline constexpr std::size_t kVarAlign = 8;
inline constexpr std::size_t kVarHeaderBytes = 8;

/// Record lifecycle, stored in the low byte of the header word.  kFree
/// must be 0: freshly value-initialized (or consumer-zeroed) storage
/// reads as "nothing published here".
enum class VarState : std::uint8_t {
  kFree = 0,       ///< no record starts here (yet)
  kReserved = 1,   ///< claimed, payload being written
  kCommitted = 2,  ///< published, consumable
  kPadding = 3,    ///< wrap gap: skip, never handed to handlers
  kReclaimed = 4,  ///< dropped (policy) or dead-owner reclaim: skip, count
};

constexpr std::uint64_t var_word(VarState state, std::uint16_t owner_plus1,
                                 std::uint32_t size) {
  return static_cast<std::uint64_t>(state) |
         (static_cast<std::uint64_t>(owner_plus1) << 8) |
         (static_cast<std::uint64_t>(size) << 32);
}
constexpr VarState var_state(std::uint64_t word) {
  return static_cast<VarState>(word & 0xff);
}
constexpr std::uint16_t var_owner_plus1(std::uint64_t word) {
  return static_cast<std::uint16_t>((word >> 8) & 0xffff);
}
constexpr std::uint32_t var_size(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

constexpr std::uint64_t var_align_up(std::uint64_t n) {
  return (n + (kVarAlign - 1)) & ~static_cast<std::uint64_t>(kVarAlign - 1);
}

/// Full footprint of a record with `payload` payload bytes: header plus
/// payload rounded up to the 8-byte grain.  Also the skip distance the
/// consumer walks, for every state including padding.
constexpr std::uint64_t var_record_bytes(std::uint64_t payload) {
  return kVarHeaderBytes + var_align_up(payload);
}

/// Zero-copy consumer view: payload bytes still inside the ring.  Valid
/// until the byte range is released (release_until past `offset`).
struct VarRecordView {
  const std::byte* data = nullptr;
  std::uint32_t size = 0;
  std::uint64_t offset = 0;  ///< logical byte offset of the record header
};

/// Producer-side claim between reserve and commit.  `data` is writable
/// in-ring storage owned by this producer until commit.
struct VarReservation {
  std::byte* data = nullptr;
  std::uint32_t size = 0;
  std::uint64_t offset = 0;  ///< logical byte offset of the record header
  std::uint64_t end = 0;     ///< logical offset one past the record
  std::uint16_t owner_plus1 = 0;
};

/// Counter snapshot; all byte counts are monotonic.  "footprint" =
/// header + aligned payload (the unit the logical capacity is charged
/// in); "payload" = the bytes handlers actually see.
struct VarCounters {
  std::uint64_t committed_records = 0;
  std::uint64_t committed_payload_bytes = 0;
  std::uint64_t committed_footprint_bytes = 0;
  std::uint64_t padding_bytes = 0;  ///< claimed as wrap padding
  std::uint64_t consumed_records = 0;
  std::uint64_t consumed_payload_bytes = 0;
  std::uint64_t consumed_footprint_bytes = 0;
  std::uint64_t reclaimed_records = 0;
  std::uint64_t reclaimed_payload_bytes = 0;
  std::uint64_t reclaimed_footprint_bytes = 0;
  std::uint64_t released_padding_bytes = 0;
  std::uint64_t lease_lost = 0;      ///< commits that lost to a reclaim
  std::uint64_t tail_bytes = 0;      ///< published claim cursor
  std::uint64_t head_bytes = 0;      ///< released cursor
};

namespace detail {

/// Storage + consumer side shared by both varlen rings (CRTP: the
/// derived ring supplies the producer discipline and the release hook).
/// Cells are plain uint64_t so payload bytes can be written with plain
/// stores; header words are accessed through std::atomic_ref.
template <typename Derived, template <typename> class SlotsTmpl, bool kZeroOnRelease>
class VarRingBase {
 public:
  // -- consumer side ------------------------------------------------------

  /// Hands out the oldest committed record as an in-ring view and moves
  /// the claim cursor past it (skipping padding / reclaimed records).
  /// nullopt when nothing consumable is visible — empty, or the record
  /// at the cursor is still being published (strict order, like the
  /// item MPSC queue: holes are waited out, not skipped).
  std::optional<VarRecordView> claim_front() {
    for (;;) {
      const std::uint64_t c = cons_.claim;
      if (c == cons_.cached_tail) {
        cons_.cached_tail = derived().tail_visible();
        if (c == cons_.cached_tail) return std::nullopt;
      }
      const std::uint64_t w = word_ref(pos_of(c)).load(std::memory_order_acquire);
      const VarState s = var_state(w);
      if (s == VarState::kPadding || s == VarState::kReclaimed) {
        cons_.claim = c + var_record_bytes(var_size(w));
        continue;
      }
      if (s != VarState::kCommitted) return std::nullopt;  // kFree/kReserved
      cons_.claim = c + var_record_bytes(var_size(w));
      return VarRecordView{payload_ptr(pos_of(c)), var_size(w), c};
    }
  }

  /// Like claim_front() but leaves the committed record unclaimed: the
  /// cursor advances over padding / reclaimed records only and the view
  /// of the oldest committed record is returned without moving past it.
  /// The shm host uses this to match a record against its announcement
  /// before consuming it (a mismatch means the record died with its
  /// producer and the announcement resolves as a loss, not a view).
  std::optional<VarRecordView> peek_front() {
    for (;;) {
      const std::uint64_t c = cons_.claim;
      if (c == cons_.cached_tail) {
        cons_.cached_tail = derived().tail_visible();
        if (c == cons_.cached_tail) return std::nullopt;
      }
      const std::uint64_t w = word_ref(pos_of(c)).load(std::memory_order_acquire);
      const VarState s = var_state(w);
      if (s == VarState::kPadding || s == VarState::kReclaimed) {
        cons_.claim = c + var_record_bytes(var_size(w));
        continue;
      }
      if (s != VarState::kCommitted) return std::nullopt;
      return VarRecordView{payload_ptr(pos_of(c)), var_size(w), c};
    }
  }

  /// Producer-side withdrawal of an own committed-but-never-announced
  /// record (the shm host's orphan path: the record published but its
  /// control-ring announcement could not): flips it to kReclaimed so the
  /// consumer's record<->announcement correspondence stays exact.  False
  /// when the record is no longer committed (a reaper got there first).
  bool abandon(const VarReservation& r) {
    std::uint64_t expected = var_word(VarState::kCommitted, r.owner_plus1, r.size);
    return word_ref(pos_of(r.offset))
        .compare_exchange_strong(
            expected, var_word(VarState::kReclaimed, r.owner_plus1, r.size),
            std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Dead-owner sweep (consumer/reaper only): resolves every record
  /// between the claim cursor and the visible tail — committed records
  /// are marked reclaimed, reserved records are CASed to reclaimed so a
  /// racing zombie commit loses its lease — and advances the claim
  /// cursor to the tail.  Returns records resolved (padding excluded).
  /// Call release_until(claim_offset()) afterwards to return the bytes.
  std::size_t reclaim_all() {
    std::size_t n = 0;
    std::uint64_t c = cons_.claim;
    const std::uint64_t tail = derived().tail_visible();
    while (c < tail) {
      auto ref = word_ref(pos_of(c));
      std::uint64_t w = ref.load(std::memory_order_acquire);
      for (;;) {
        const VarState s = var_state(w);
        if (s == VarState::kPadding || s == VarState::kReclaimed) break;
        PCPC_ASSERT_MSG(s == VarState::kCommitted || s == VarState::kReserved,
                        "unwritten header inside the published window");
        if (ref.compare_exchange_strong(
                w, var_word(VarState::kReclaimed, var_owner_plus1(w), var_size(w)),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          ++n;
          break;
        }
        // Lost the CAS to the owner's commit; re-read and reclaim that.
      }
      c += var_record_bytes(var_size(w));
    }
    cons_.claim = c;
    return n;
  }

  /// Overflow-policy hook (drop-oldest at record granularity): marks the
  /// oldest *unclaimed* committed record reclaimed and advances the
  /// claim cursor past it, so its bytes return to producers at the next
  /// release.  False when nothing is reclaimable (empty, or the head
  /// record is mid-publication).
  bool drop_oldest(std::uint64_t& footprint, std::uint32_t& payload) {
    for (;;) {
      const std::uint64_t c = cons_.claim;
      if (c == cons_.cached_tail) {
        cons_.cached_tail = derived().tail_visible();
        if (c == cons_.cached_tail) return false;
      }
      const std::uint64_t w = word_ref(pos_of(c)).load(std::memory_order_acquire);
      const VarState s = var_state(w);
      if (s == VarState::kPadding || s == VarState::kReclaimed) {
        cons_.claim = c + var_record_bytes(var_size(w));
        continue;
      }
      if (s != VarState::kCommitted) return false;
      word_ref(pos_of(c)).store(
          var_word(VarState::kReclaimed, var_owner_plus1(w), var_size(w)),
          std::memory_order_release);
      cons_.claim = c + var_record_bytes(var_size(w));
      footprint = var_record_bytes(var_size(w));
      payload = var_size(w);
      return true;
    }
  }

  /// Logical offset of the claim cursor — the release_until() target
  /// that returns every byte claimed so far.
  std::uint64_t claim_offset() const { return cons_.claim; }

  /// Returns the bytes in [head, target) to the producers, tallying each
  /// record walked (consumed / reclaimed / padding).  `target` must be a
  /// record boundary previously reached by the claim cursor.  May run
  /// concurrently with claim-cursor operations above `target`.
  void release_until(std::uint64_t target) {
    std::uint64_t h = cons_.head_local;
    PCPC_ASSERT_MSG(target >= h, "release target behind the released cursor");
    if (target == h) return;
    std::uint64_t released_need = 0;
    std::uint64_t consumed_r = 0, consumed_pl = 0, consumed_fp = 0;
    std::uint64_t reclaimed_r = 0, reclaimed_pl = 0, reclaimed_fp = 0;
    std::uint64_t pad = 0;
    while (h < target) {
      const std::uint64_t w = word_ref(pos_of(h)).load(std::memory_order_relaxed);
      const std::uint64_t fp = var_record_bytes(var_size(w));
      switch (var_state(w)) {
        case VarState::kPadding:
          pad += fp;
          break;
        case VarState::kReclaimed:
          ++reclaimed_r;
          reclaimed_pl += var_size(w);
          reclaimed_fp += fp;
          released_need += fp;
          break;
        case VarState::kCommitted:
          ++consumed_r;
          consumed_pl += var_size(w);
          consumed_fp += fp;
          released_need += fp;
          break;
        default:
          PCPC_ASSERT_MSG(false, "released an unpublished record");
      }
      if constexpr (kZeroOnRelease) {
        // Multi-producer rings gate the consumer on the claimed (not
        // committed) tail, so a claim whose header is not yet written
        // must read as kFree — zero what we release before any producer
        // can re-claim it (the producer acquires the released cursor
        // below before writing, see VarMpscRing::try_reserve).
        std::memset(cell_ptr(pos_of(h)), 0, static_cast<std::size_t>(fp));
      }
      h += fp;
    }
    PCPC_ASSERT_MSG(h == target, "release target is not a record boundary");
    consumed_records_.fetch_add(consumed_r, std::memory_order_relaxed);
    consumed_payload_bytes_.fetch_add(consumed_pl, std::memory_order_relaxed);
    consumed_footprint_bytes_.fetch_add(consumed_fp, std::memory_order_relaxed);
    reclaimed_records_.fetch_add(reclaimed_r, std::memory_order_relaxed);
    reclaimed_payload_bytes_.fetch_add(reclaimed_pl, std::memory_order_relaxed);
    reclaimed_footprint_bytes_.fetch_add(reclaimed_fp, std::memory_order_relaxed);
    released_padding_bytes_.fetch_add(pad, std::memory_order_relaxed);
    cons_.head_local = h;
    derived().on_release(released_need);  // return capacity to producers
    head_.index.store(h, std::memory_order_release);
  }

  /// Convenience: claim + immediately release one record (copies nothing;
  /// the view passed to `fn` dies with the call).
  template <typename Fn>
  bool pop_front(Fn&& fn) {
    auto view = claim_front();
    if (!view.has_value()) return false;
    fn(std::span<const std::byte>(view->data, view->size));
    release_until(cons_.claim);
    return true;
  }

  /// Scatter-free bulk drain: every visible record is handed to `fn` as
  /// an in-ring span, then the whole run is released with ONE cursor
  /// publication (Torquati's batching argument on the consumer side).
  /// Returns the number of records drained.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max_records) {
      auto view = claim_front();
      if (!view.has_value()) break;
      fn(std::span<const std::byte>(view->data, view->size));
      ++n;
    }
    if (n > 0) release_until(cons_.claim);
    return n;
  }

  // -- capacity -----------------------------------------------------------

  /// Raises or lowers the logical capacity (record footprint bytes),
  /// clamped into [kVarHeaderBytes, max_capacity_bytes()].  Returns the
  /// capacity actually set.
  std::size_t set_capacity_bytes(std::size_t n) {
    const std::size_t clamped =
        n < kVarHeaderBytes ? kVarHeaderBytes
                            : (n > max_bytes_ ? max_bytes_ : n);
    logical_bytes_.store(clamped, std::memory_order_release);
    return clamped;
  }

  std::size_t capacity_bytes() const {
    return logical_bytes_.load(std::memory_order_acquire);
  }
  std::size_t max_capacity_bytes() const { return max_bytes_; }
  std::uint32_t max_record_payload() const { return max_record_payload_; }

  /// Claimed-but-unreleased bytes (records in flight + padding).
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(tail_bytes() - head_bytes());
  }
  bool empty() const { return size_bytes() == 0; }

  std::uint64_t tail_bytes() const {
    return const_cast<VarRingBase*>(this)->derived().tail_visible();
  }
  std::uint64_t head_bytes() const {
    return head_.index.load(std::memory_order_acquire);
  }

  /// Producer identity stamped into header words (ipc lease protocol;
  /// 0 = anonymous in-process producer).
  void set_owner(std::uint16_t owner_plus1) { owner_plus1_ = owner_plus1; }

  VarCounters counters() const {
    VarCounters c;
    c.committed_records = committed_records_.load(std::memory_order_relaxed);
    c.committed_payload_bytes =
        committed_payload_bytes_.load(std::memory_order_relaxed);
    c.committed_footprint_bytes =
        committed_footprint_bytes_.load(std::memory_order_relaxed);
    c.padding_bytes = padding_bytes_.load(std::memory_order_relaxed);
    c.consumed_records = consumed_records_.load(std::memory_order_relaxed);
    c.consumed_payload_bytes =
        consumed_payload_bytes_.load(std::memory_order_relaxed);
    c.consumed_footprint_bytes =
        consumed_footprint_bytes_.load(std::memory_order_relaxed);
    c.reclaimed_records = reclaimed_records_.load(std::memory_order_relaxed);
    c.reclaimed_payload_bytes =
        reclaimed_payload_bytes_.load(std::memory_order_relaxed);
    c.reclaimed_footprint_bytes =
        reclaimed_footprint_bytes_.load(std::memory_order_relaxed);
    c.released_padding_bytes =
        released_padding_bytes_.load(std::memory_order_relaxed);
    c.lease_lost = lease_lost_.load(std::memory_order_relaxed);
    c.tail_bytes = tail_bytes();
    c.head_bytes = head_bytes();
    return c;
  }

  /// Physical ring bytes for a (max logical bytes, max record payload)
  /// pair: power of two covering the logical capacity plus a 4x-max-
  /// record margin.  The margin bounds everything that occupies storage
  /// without being charged to the logical account: at most one wrap pad
  /// and one abandoned crossing claim per revolution, and a window
  /// shorter than one revolution holds at most two boundary events.
  static std::size_t physical_bytes(std::size_t max_bytes,
                                    std::uint32_t max_record_payload) {
    const std::uint64_t margin = 4 * var_record_bytes(max_record_payload);
    std::size_t p = 64;
    while (p < max_bytes + margin) p <<= 1;
    return p;
  }

  /// Bytes an OffsetSlots placement region must provide.
  static std::size_t placement_bytes(std::size_t max_bytes,
                                     std::uint32_t max_record_payload) {
    return physical_bytes(max_bytes, max_record_payload);
  }

 protected:
  VarRingBase(std::size_t capacity_bytes, std::size_t max_bytes,
              std::uint32_t max_record_payload, Placement placement)
      : max_bytes_(max_bytes == 0 ? capacity_bytes : max_bytes),
        max_record_payload_(max_record_payload),
        n_bytes_(physical_bytes(max_bytes_, max_record_payload_)),
        mask_(n_bytes_ - 1),
        cells_(n_bytes_ / kVarAlign, placement) {
    PCPC_ASSERT_MSG(capacity_bytes > 0, "varlen ring capacity must be positive");
    PCPC_ASSERT_MSG(capacity_bytes <= max_bytes_, "capacity above max_bytes");
    PCPC_ASSERT_MSG(var_record_bytes(max_record_payload_) * 4 <= n_bytes_,
                    "max record too large for the ring");
    logical_bytes_.store(capacity_bytes, std::memory_order_relaxed);
  }

  VarRingBase(const VarRingBase&) = delete;
  VarRingBase& operator=(const VarRingBase&) = delete;

  Derived& derived() { return *static_cast<Derived*>(this); }

  std::size_t pos_of(std::uint64_t offset) const {
    return static_cast<std::size_t>(offset) & mask_;
  }

  std::atomic_ref<std::uint64_t> word_ref(std::size_t pos) {
    return std::atomic_ref<std::uint64_t>(cells_.data()[pos / kVarAlign]);
  }

  std::byte* payload_ptr(std::size_t pos) {
    return reinterpret_cast<std::byte*>(cells_.data() + pos / kVarAlign + 1);
  }
  std::byte* cell_ptr(std::size_t pos) {
    return reinterpret_cast<std::byte*>(cells_.data() + pos / kVarAlign);
  }

  std::uint64_t cap64() const {
    return static_cast<std::uint64_t>(
        logical_bytes_.load(std::memory_order_relaxed));
  }

  /// Shared index on its own cache line (same shape as the item rings).
  struct alignas(64) SharedIndex {
    std::atomic<std::uint64_t> index{0};
  };

  /// Consumer-private cursors: claim (views handed out) ahead of the
  /// released head, cached tail refreshed only when the walk runs dry.
  struct alignas(64) ConsumerState {
    std::uint64_t claim = 0;
    std::uint64_t head_local = 0;
    std::uint64_t cached_tail = 0;
  };

  const std::size_t max_bytes_;
  const std::uint32_t max_record_payload_;
  const std::size_t n_bytes_;
  const std::size_t mask_;
  SlotsTmpl<std::uint64_t> cells_;
  SharedIndex head_;  ///< released cursor (telemetry + shm recovery)
  alignas(64) std::atomic<std::size_t> logical_bytes_{1};
  ConsumerState cons_;
  std::uint16_t owner_plus1_ = 0;

  // Monotonic tallies (relaxed; exactness comes from single-writer or
  // RMW updates, not ordering).
  std::atomic<std::uint64_t> committed_records_{0};
  std::atomic<std::uint64_t> committed_payload_bytes_{0};
  std::atomic<std::uint64_t> committed_footprint_bytes_{0};
  std::atomic<std::uint64_t> padding_bytes_{0};
  std::atomic<std::uint64_t> consumed_records_{0};
  std::atomic<std::uint64_t> consumed_payload_bytes_{0};
  std::atomic<std::uint64_t> consumed_footprint_bytes_{0};
  std::atomic<std::uint64_t> reclaimed_records_{0};
  std::atomic<std::uint64_t> reclaimed_payload_bytes_{0};
  std::atomic<std::uint64_t> reclaimed_footprint_bytes_{0};
  std::atomic<std::uint64_t> released_padding_bytes_{0};
  std::atomic<std::uint64_t> lease_lost_{0};
};

}  // namespace detail

/// Single-producer varlen ring (Torquati discipline: producer-private
/// tail, cached admission refresh, zero RMW on the hot path).
///
/// `eager_publish = false` (default): the claimed tail is published at
/// commit, so consumers only ever see committed records — the pure
/// in-process mode.  `eager_publish = true`: the tail is published at
/// reserve (after the kReserved header store), which is what the
/// crash-safe shm plane needs — every claim a dead producer made is
/// visible to the reaper, and a new producer recovers its private state
/// with producer_attach().
template <template <typename> class SlotsTmpl = HeapSlots>
class VarSpscRing
    : public detail::VarRingBase<VarSpscRing<SlotsTmpl>, SlotsTmpl, false> {
  using Base = detail::VarRingBase<VarSpscRing<SlotsTmpl>, SlotsTmpl, false>;
  friend Base;

 public:
  explicit VarSpscRing(std::size_t capacity_bytes, std::size_t max_bytes = 0,
                       std::uint32_t max_record_payload = (16u << 10),
                       Placement placement = {}, bool eager_publish = false)
      : Base(capacity_bytes, max_bytes, max_record_payload, placement),
        eager_publish_(eager_publish) {}

  // -- producer side ------------------------------------------------------

  /// Claims `payload_bytes` in the ring; false when the record does not
  /// fit the logical capacity (after one admission refresh) or exceeds
  /// the max record payload.  On success the caller owns out.data until
  /// commit().
  bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) {
    if (payload_bytes > this->max_record_payload_) return false;
    const std::uint64_t need = var_record_bytes(payload_bytes);
    if (prod_.admitted + need - prod_.cached_released > this->cap64()) {
      prod_.cached_released =
          released_need_.index.load(std::memory_order_acquire);
      if (prod_.admitted + need - prod_.cached_released > this->cap64()) {
        return false;
      }
    }
    std::uint64_t t = prod_.tail_local;
    const std::size_t pos = this->pos_of(t);
    const std::uint64_t pad =
        pos + need > this->n_bytes_ ? this->n_bytes_ - pos : 0;
    if (pad != 0) {
      this->word_ref(pos).store(
          var_word(VarState::kPadding, 0,
                   static_cast<std::uint32_t>(pad - kVarHeaderBytes)),
          std::memory_order_release);
      this->padding_bytes_.fetch_add(pad, std::memory_order_relaxed);
      t += pad;
    }
    const std::size_t rpos = this->pos_of(t);
    this->word_ref(rpos).store(
        var_word(VarState::kReserved, this->owner_plus1_, payload_bytes),
        std::memory_order_release);
    out.data = this->payload_ptr(rpos);
    out.size = payload_bytes;
    out.offset = t;
    out.end = t + need;
    out.owner_plus1 = this->owner_plus1_;
    prod_.tail_local = t + need;
    prod_.admitted += need;
    admitted_pub_.index.store(prod_.admitted, std::memory_order_relaxed);
    if (eager_publish_) {
      tail_.index.store(prod_.tail_local, std::memory_order_release);
    }
    return true;
  }

  /// Publishes a reservation.  False when the record was reclaimed in
  /// the meantime (a reaper decided this producer was dead — the shm
  /// lease protocol); the bytes stay claimed and are counted reclaimed
  /// at release.
  bool commit(VarReservation& r) {
    std::uint64_t expected =
        var_word(VarState::kReserved, r.owner_plus1, r.size);
    const bool won = this->word_ref(this->pos_of(r.offset))
                         .compare_exchange_strong(
                             expected,
                             var_word(VarState::kCommitted, r.owner_plus1, r.size),
                             std::memory_order_acq_rel,
                             std::memory_order_acquire);
    if (won) {
      this->committed_records_.fetch_add(1, std::memory_order_relaxed);
      this->committed_payload_bytes_.fetch_add(r.size,
                                               std::memory_order_relaxed);
      this->committed_footprint_bytes_.fetch_add(r.end - r.offset,
                                                 std::memory_order_relaxed);
    } else {
      this->lease_lost_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!eager_publish_) {
      tail_.index.store(prod_.tail_local, std::memory_order_release);
    }
    return won;
  }

  /// One-call copy-in convenience (the "single copy" producer path):
  /// reserve + memcpy + commit.
  bool try_push_record(std::span<const std::byte> payload) {
    VarReservation r;
    if (!try_reserve(static_cast<std::uint32_t>(payload.size()), r)) return false;
    std::memcpy(r.data, payload.data(), payload.size());
    return commit(r);
  }

  /// Rebuilds the producer-private cursors from the shared state — how a
  /// producer process attaches to a ring that already lives in shared
  /// memory (possibly after its predecessor died mid-record).
  void producer_attach() {
    prod_.tail_local = tail_.index.load(std::memory_order_acquire);
    prod_.admitted = admitted_pub_.index.load(std::memory_order_acquire);
    prod_.cached_released =
        released_need_.index.load(std::memory_order_acquire);
  }

  /// Reaper-side admission reconciliation (consumer/reaper only): after
  /// a producer died, the shared admission counter may be one record
  /// stale; recompute it exactly by walking the live window.
  void reconcile_admitted() {
    const std::uint64_t head = this->head_bytes();
    const std::uint64_t tail = tail_.index.load(std::memory_order_acquire);
    std::uint64_t live_need = 0;
    for (std::uint64_t o = head; o < tail;) {
      const std::uint64_t w =
          this->word_ref(this->pos_of(o)).load(std::memory_order_acquire);
      const std::uint64_t fp = var_record_bytes(var_size(w));
      if (var_state(w) != VarState::kPadding) live_need += fp;
      o += fp;
    }
    const std::uint64_t released =
        released_need_.index.load(std::memory_order_acquire);
    admitted_pub_.index.store(released + live_need, std::memory_order_release);
  }

 private:
  std::uint64_t tail_visible() {
    return tail_.index.load(std::memory_order_acquire);
  }

  void on_release(std::uint64_t released_need) {
    released_need_.index.store(
        released_need_.index.load(std::memory_order_relaxed) + released_need,
        std::memory_order_release);
  }

  /// Producer-private state (lives with the ring so a shm producer can
  /// recover it; see producer_attach).
  struct alignas(64) ProducerState {
    std::uint64_t tail_local = 0;
    std::uint64_t admitted = 0;         ///< record footprint bytes admitted
    std::uint64_t cached_released = 0;  ///< last observed released counter
  };

  typename Base::SharedIndex tail_;           ///< published claim cursor
  typename Base::SharedIndex released_need_;  ///< released record footprints
  typename Base::SharedIndex admitted_pub_;   ///< shadow of prod_.admitted
  ProducerState prod_;
  const bool eager_publish_;
};

/// Multi-producer varlen ring (Jiffy discipline): admission is one
/// fetch_add on the in-flight byte counter, the position claim one
/// fetch_add on the byte ticket.  A crossing claim is converted to
/// padding by its owner and re-claimed — the only non-FAA event, at most
/// once per ring revolution.  Consumers are gated on the claimed (not
/// committed) ticket, so released storage is zeroed to make unwritten
/// headers read as kFree (the Vyukov-handshake role the item queue's seq
/// words play, folded into the record headers).
template <template <typename> class SlotsTmpl = HeapSlots>
class VarMpscRing
    : public detail::VarRingBase<VarMpscRing<SlotsTmpl>, SlotsTmpl, true> {
  using Base = detail::VarRingBase<VarMpscRing<SlotsTmpl>, SlotsTmpl, true>;
  friend Base;

 public:
  explicit VarMpscRing(std::size_t capacity_bytes, std::size_t max_bytes = 0,
                       std::uint32_t max_record_payload = (16u << 10),
                       Placement placement = {})
      : Base(capacity_bytes, max_bytes, max_record_payload, placement) {}

  // -- producer side (any thread) -----------------------------------------

  bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) {
    if (payload_bytes > this->max_record_payload_) return false;
    const std::uint64_t need = var_record_bytes(payload_bytes);
    const std::uint64_t admitted =
        inflight_.fetch_add(need, std::memory_order_acquire);
    if (admitted + need > this->cap64()) {
      inflight_.fetch_sub(need, std::memory_order_relaxed);
      return false;
    }
    for (;;) {
      const std::uint64_t t = tail_.fetch_add(need, std::memory_order_relaxed);
      // Admission keeps tail − head inside the physical margin, so these
      // bytes' previous occupant is already released — but our credit may
      // predate that release (admission and ticket are separate FAAs).
      // Acquiring the released cursor orders the consumer's zeroing of
      // the bytes before our writes; in practice it never spins.
      while (this->head_bytes() + this->n_bytes_ < t + need) {
      }
      const std::size_t pos = this->pos_of(t);
      if (pos + need <= this->n_bytes_) {
        this->word_ref(pos).store(
            var_word(VarState::kReserved, this->owner_plus1_, payload_bytes),
            std::memory_order_release);
        out.data = this->payload_ptr(pos);
        out.size = payload_bytes;
        out.offset = t;
        out.end = t + need;
        out.owner_plus1 = this->owner_plus1_;
        return true;
      }
      // Crossing claim: it cannot hold a contiguous record, so publish
      // the whole claim as padding (back half to the ring end, front
      // half after the wrap) and re-claim.  Only the claim that contains
      // the revolution boundary takes this path.
      const std::uint64_t back = this->n_bytes_ - pos;
      this->word_ref(pos).store(
          var_word(VarState::kPadding, 0,
                   static_cast<std::uint32_t>(back - kVarHeaderBytes)),
          std::memory_order_release);
      const std::uint64_t front = need - back;
      if (front != 0) {
        this->word_ref(0).store(
            var_word(VarState::kPadding, 0,
                     static_cast<std::uint32_t>(front - kVarHeaderBytes)),
            std::memory_order_release);
      }
      this->padding_bytes_.fetch_add(need, std::memory_order_relaxed);
    }
  }

  bool commit(VarReservation& r) {
    std::uint64_t expected =
        var_word(VarState::kReserved, r.owner_plus1, r.size);
    const bool won = this->word_ref(this->pos_of(r.offset))
                         .compare_exchange_strong(
                             expected,
                             var_word(VarState::kCommitted, r.owner_plus1, r.size),
                             std::memory_order_acq_rel,
                             std::memory_order_acquire);
    if (won) {
      this->committed_records_.fetch_add(1, std::memory_order_relaxed);
      this->committed_payload_bytes_.fetch_add(r.size,
                                               std::memory_order_relaxed);
      this->committed_footprint_bytes_.fetch_add(r.end - r.offset,
                                                 std::memory_order_relaxed);
    } else {
      this->lease_lost_.fetch_add(1, std::memory_order_relaxed);
    }
    return won;
  }

  bool try_push_record(std::span<const std::byte> payload) {
    VarReservation r;
    if (!try_reserve(static_cast<std::uint32_t>(payload.size()), r)) return false;
    std::memcpy(r.data, payload.data(), payload.size());
    return commit(r);
  }

 private:
  std::uint64_t tail_visible() {
    return tail_.load(std::memory_order_acquire);
  }

  void on_release(std::uint64_t released_need) {
    inflight_.fetch_sub(released_need, std::memory_order_release);
  }

  alignas(64) std::atomic<std::uint64_t> tail_{0};      ///< byte ticket
  alignas(64) std::atomic<std::uint64_t> inflight_{0};  ///< admission counter
};

}  // namespace pcpc::queue
