// Crash-safe cross-process MPSC channel over one shm segment.
//
// Endpoint objects (one Consumer, up to kMaxProducers Producers, each in
// its own process) wrap the shared layout from layout.hpp.  The slot
// protocol — claim/lease/publish/reclaim — is documented there; this
// header adds the process-facing machinery:
//
//   - registry join/leave with per-peer heartbeats,
//   - the reaper (dead-peer detection + whole-ring lease sweep),
//   - the futex doorbell with *exact* paid-wakeup accounting: a producer
//     pays a futex_wake only after winning the kConsumerSleeping ->
//     kConsumerWoken CAS, so every increment of ChannelHeader::futex_wakes
//     creates exactly one kConsumerWoken token, and the consumer consumes
//     each token exactly once (its wake-side exchange back to awake).
//     The obs ledger's paid-wakeup total therefore equals the shm futex
//     wake counter identically, not statistically.
//
// Failure semantics (the contract the kill-chaos harness checks):
//   - SIGKILLed producer: consumer detects it (heartbeat stale + the
//     peer's pidfd reporting termination, see detail::PeerWatch),
//     reclaims its in-flight lease and any hole it left, and keeps
//     draining — never wedges.
//   - SIGSTOPped producer: alive by definition; its lease is honored and
//     the consumer stalls on that slot until SIGCONT (strict order is
//     part of the differential contract, not negotiable under stop).
//   - Dead consumer: producers observe it via the registry and fail
//     pushes with PushResult::kConsumerDead after bounded retry/backoff.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "pcpc/ipc/futex.hpp"
#include "pcpc/ipc/layout.hpp"
#include "pcpc/ipc/shm.hpp"
#include "pcpc/ipc/telemetry.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::ipc {

/// CLOCK_MONOTONIC in nanoseconds (shared timebase for heartbeats/leases).
std::int64_t now_ns();

/// Stateless liveness probe by pid number: `kill(pid, 0)` plus a
/// `/proc/<pid>/stat` zombie check.  False when `pid` is gone OR a zombie
/// (SIGKILLed children stay zombies until the parent reaps them; for
/// lease purposes a zombie is dead — it will never publish again).  A
/// recycled pid reads alive.  The endpoints probe through
/// detail::PeerWatch and reach this only as its fallback.
bool pid_alive(std::int32_t pid);

namespace detail {

/// One endpoint's handle on one peer process: a pidfd (`pidfd_open(2)`)
/// for the registry incarnation (pid, epoch) it was opened for.  A pidfd
/// polls readable once its process has terminated, zombie included, so
/// alive() is a zero-timeout poll() instead of a /proc parse — and the fd
/// pins the process: a dead peer whose pid the kernel hands to a new
/// process still reads dead.  If `pidfd_open` fails with ESRCH the peer
/// is already dead; on any other failure (ENOSYS, EMFILE, EPERM, ...)
/// alive() answers pid_alive(pid()).  Move-only; the destructor closes
/// the fd.  A default watch watches pid 0, which reads dead.
class PeerWatch {
 public:
  PeerWatch() = default;
  ~PeerWatch();
  PeerWatch(PeerWatch&& other) noexcept;
  PeerWatch& operator=(PeerWatch&& other) noexcept;
  PeerWatch(const PeerWatch&) = delete;
  PeerWatch& operator=(const PeerWatch&) = delete;

  /// Points the watch at registry incarnation (pid, epoch).  A no-op when
  /// it already watches exactly that pair; otherwise closes the old fd
  /// and opens one for `pid`.
  void watch(std::int32_t pid, std::uint64_t epoch);

  /// False once the watched process has terminated (zombies included).
  bool alive() const;

  std::int32_t pid() const { return pid_; }
  std::uint64_t epoch() const { return epoch_; }

 private:
  void close();

  int fd_ = -1;       ///< the pidfd; -1 when not open (fallback or gone)
  bool gone_ = false; ///< pidfd_open reported ESRCH: dead for good
  std::int32_t pid_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace detail

/// Channel geometry + protocol timing, fixed at creation.
struct ChannelConfig {
  std::size_t capacity = 1024;            ///< logical admission bound
  std::int64_t lease_ns = 5'000'000;      ///< free-hole reclaim age (5 ms)
  std::int64_t heartbeat_period_ns = 1'000'000;  ///< peer refresh Delta
  std::int64_t heartbeat_timeout_ns = 0;  ///< staleness bound; 0 = 8 * period
  std::uint64_t wake_threshold = 0;       ///< doorbell at fill >= this; 0 = cap/2
  /// 1-in-N item-lifecycle sampling, shared by every peer (the ticket is
  /// the sample key, so both sides agree without tagging payloads).
  /// 0 disarms spans on this channel.
  std::uint64_t span_sample_every = 0;
  /// Varlen payload plane: logical capacity (record footprint bytes) of
  /// each producer's in-segment byte ring.  0 = no plane (v2-equivalent
  /// segment; push_record/drain_records are unusable).  A channel with a
  /// payload plane carries records exclusively: every control value is an
  /// announcement, so plain push() must not be mixed in.
  std::size_t payload_ring_bytes = 0;
  std::uint32_t payload_max_record = 16u << 10;  ///< max payload bytes per record
};

/// Producer-side retry policy for a full ring / slow consumer.
struct ProducerConfig {
  int full_retries = 64;
  std::int64_t initial_backoff_ns = 2'000;
  std::int64_t max_backoff_ns = 1'000'000;
  AttachOptions attach;
};

enum class PushResult : std::uint8_t {
  kOk = 0,
  kFull = 1,          ///< still full after bounded retry/backoff
  kConsumerDead = 2,  ///< registry says nobody will ever drain this
  kLeaseLost = 3,     ///< consumer reclaimed our slot mid-publish
};

const char* push_result_name(PushResult r);

/// Crash-injection points for the kill-chaos harness: the hook runs
/// between protocol steps so a test child can raise(SIGKILL) exactly
/// there.  Production code never sets it.
enum class CrashPoint : std::uint8_t {
  kAfterClaim = 0,   ///< ticket claimed, lease not yet taken (leaves a hole)
  kMidPublish = 1,   ///< lease taken, value not yet published (leaves a lock)
  kAfterPublish = 2, ///< value published, counters not yet bumped
  // Varlen (push_record) protocol steps, before the control push above:
  kAfterReserve = 3, ///< record bytes claimed in the var ring (kReserved header)
  kAfterCommit = 4,  ///< record committed, announcement not yet pushed
};

/// Everything the conservation harness asserts on, read from shm.
struct ConservationReport {
  std::uint64_t admitted = 0;   ///< tail_ticket: tickets handed out
  std::uint64_t consumed = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t residue = 0;    ///< admitted - consumed - reclaimed (in flight)
  std::uint64_t acked_pushes = 0;  ///< producer-counted successful publishes
  std::uint64_t dropped = 0;       ///< producer-counted rejects (full / dead)
  std::uint64_t lease_lost = 0;
  std::uint64_t futex_wakes = 0;   ///< paid wakes (producer-side count)
  std::uint64_t doorbell = 0;
  std::uint64_t peers_reaped = 0;
  // Varlen payload plane, byte-granular (all zero when the plane is
  // absent).  The byte conservation identity mirrors the ticket one:
  //   var_admitted_bytes == var_consumed_bytes + var_reclaimed_bytes
  //                         + var_padding_bytes + var_residue_bytes
  // where admitted = the rings' claim cursors (every byte a producer ever
  // claimed, wrap padding included), consumed/reclaimed = released record
  // footprints by fate, and residue = claimed-not-yet-released.  Exact at
  // every quiescent point, SIGKILL included, because each ring's cursors
  // and tallies are shm state swept by the reaper.
  std::uint64_t var_admitted_bytes = 0;
  std::uint64_t var_consumed_bytes = 0;   ///< released footprints, consumed fate
  std::uint64_t var_reclaimed_bytes = 0;  ///< released footprints, reclaimed fate
  std::uint64_t var_padding_bytes = 0;    ///< released wrap padding
  std::uint64_t var_residue_bytes = 0;    ///< claimed, not yet released
  std::uint64_t var_delivered_records = 0;  ///< records handed to drain_records
  std::uint64_t var_delivered_bytes = 0;    ///< payload bytes handed out
  std::uint64_t var_lost_records = 0;  ///< announcements of crash-reclaimed records
};

/// Reads the report off any mapped channel segment.
ConservationReport read_report(const ChannelHeader& hdr);

/// Why Consumer::wait returned.
enum class WakeKind : std::uint8_t {
  kDoorbell = 0,  ///< paid wake: a producer rang and futex_wake'd us
  kTimeout = 1,   ///< free wake: slot timer Delta elapsed
  kPoll = 2,      ///< work was already visible; never slept
};

/// The single draining endpoint.  Creates and owns the segment; unlinks
/// it on destruction.  All methods are single-threaded (one consumer).
class Consumer {
 public:
  Consumer() = default;
  ~Consumer();
  Consumer(Consumer&&) noexcept;
  Consumer& operator=(Consumer&&) noexcept;
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  static std::optional<Consumer> create(const std::string& shm_name,
                                        const ChannelConfig& config,
                                        std::string* error = nullptr);

  /// Pops published items in strict ticket order, invoking `fn(value)`
  /// per item, until the ring is empty, a hole/lease blocks the head, or
  /// `max_items` is reached.  Performs inline recovery: expired free
  /// holes and leases of provably dead owners are reclaimed as they
  /// arrive at the head.  Returns items consumed (reclaims excluded).
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max_items = SIZE_MAX) {
    maybe_heartbeat();
    std::size_t n = 0;
    while (n < max_items) {
      const std::uint64_t h = hdr_->head.load(std::memory_order_relaxed);
      if (h == hdr_->tail_ticket.load(std::memory_order_acquire)) break;
      IpcSlot& slot = slots_[h % hdr_->n_slots];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == h + 1) {  // published
        const std::uint64_t value = slot.value;
        slot.seq.store(h + hdr_->n_slots, std::memory_order_release);
        hdr_->head.store(h + 1, std::memory_order_release);
        hdr_->consumed.fetch_add(1, std::memory_order_relaxed);
        hole_ticket_ = UINT64_MAX;
        // Lifecycle sampling keys on the ticket (h), the same rule the
        // producer used for the produce/enqueue stages of this item.
        if (span_every_ != 0 && h % span_every_ == 0 && obs::enabled()) {
          const std::int64_t t0 = now_ns() - hdr_->epoch_mono_ns;
          fn(value);
          obs::note_item_stage(obs::kNoConsumer, 0, h, obs::ItemStage::kDrainStart,
                               t0);
          obs::note_item_stage(obs::kNoConsumer, 0, h, obs::ItemStage::kHandlerDone,
                               now_ns() - hdr_->epoch_mono_ns);
        } else {
          fn(value);
        }
        ++n;
      } else if (seq == h + hdr_->n_slots) {  // swept out-of-band by the reaper
        hdr_->head.store(h + 1, std::memory_order_release);
        hole_ticket_ = UINT64_MAX;
      } else if (!try_recover_head(h, slot, seq)) {
        break;  // head blocked on a live lease / young hole; caller re-enters
      }
    }
    return n;
  }

  /// Varlen drain: pops announcements in strict ticket order and resolves
  /// each against its producer's byte ring.  The matching committed
  /// record is handed to `fn(payload)` as a zero-copy in-segment span
  /// (valid only during the call); a mismatch — the announced offset is
  /// not the ring's oldest committed record — means the record was
  /// reclaimed after its producer died and is counted var_lost_records
  /// instead of delivered.  Every touched ring's claimed bytes are
  /// released once at the end (one cursor publication per ring per
  /// drain).  Returns records delivered (losses and reclaims excluded).
  /// Only meaningful on a channel created with payload_ring_bytes > 0.
  template <typename Fn>
  std::size_t drain_records(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    std::size_t delivered = 0;
    std::uint32_t touched = 0;
    drain(
        [&](std::uint64_t value) {
          const std::size_t idx = var_announce_owner(value);
          const std::uint64_t off = var_announce_offset(value);
          if (idx >= kMaxProducers || var_rings_[idx] == nullptr) {
            hdr_->var_lost_records.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          VarIpcRing& ring = *var_rings_[idx];
          touched |= 1u << idx;
          auto view = ring.peek_front();
          if (view.has_value() && (view->offset & kVarValueOffsetMask) == off) {
            fn(std::span<const std::byte>(view->data, view->size));
            hdr_->var_delivered_records.fetch_add(1, std::memory_order_relaxed);
            hdr_->var_delivered_bytes.fetch_add(view->size,
                                                std::memory_order_relaxed);
            ring.claim_front();  // move past the delivered record
            ++delivered;
          } else {
            // The announced record is gone: its producer died after the
            // announcement and the reaper resolved the ring.  peek_front
            // already skipped it (reclaimed) — nothing to put back.
            hdr_->var_lost_records.fetch_add(1, std::memory_order_relaxed);
          }
        },
        max_records);
    for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
      if ((touched & (1u << idx)) != 0) {
        var_rings_[idx]->release_until(var_rings_[idx]->claim_offset());
      }
    }
    return delivered;
  }

  /// Parks on the futex doorbell for up to `timeout_ns` once the ring
  /// looks empty, attributing the wake through pcpc::obs (paid when a
  /// producer futex_wake'd us, free/scheduled on timeout).  Returns
  /// immediately with kPoll when work is already visible.
  WakeKind wait(std::int64_t timeout_ns);

  /// Dead-peer detection: marks producers with stale heartbeats whose
  /// process has terminated as dead, drains their telemetry rings, sweeps
  /// the whole ring for their leases (reclaiming each), folds their
  /// counters (including telemetry cells) into the retired tallies, and
  /// frees their registry slots for reuse.  Returns the number of peers
  /// reaped.
  std::size_t reap();

  /// Drains every producer's shm trace ring into the local obs::Session
  /// (events re-stamped with origin = registry index + 1).  No-op when
  /// no session is installed.  Returns events merged.
  std::size_t drain_telemetry();

  /// Merged cross-process metric totals (live peer cells + retired).
  TelemetrySnapshot telemetry() const { return merged_telemetry(*hdr_); }

  void heartbeat();

  ConservationReport report() const { return read_report(*hdr_); }
  const ChannelHeader& header() const { return *hdr_; }
  const std::string& shm_name() const { return segment_.name(); }
  bool valid() const { return hdr_ != nullptr; }

  /// True when the head slot has a published item ready to pop.
  bool has_visible_work() const;

 private:
  bool try_recover_head(std::uint64_t h, IpcSlot& slot, std::uint64_t seq);
  std::size_t drain_peer_telemetry(std::size_t idx);
  void maybe_heartbeat();
  /// The watch on registry slot `idx`, re-keyed to the slot's current
  /// (pid, epoch) — reopened when a new incarnation joined the slot.
  detail::PeerWatch& producer_watch(std::size_t idx);

  ShmSegment segment_;
  ChannelHeader* hdr_ = nullptr;
  IpcSlot* slots_ = nullptr;
  /// Local addresses of the per-producer payload rings (all nullptr when
  /// the plane is absent).
  std::array<VarIpcRing*, kMaxProducers> var_rings_{};
  std::uint64_t hole_ticket_ = UINT64_MAX;  ///< head hole being aged
  std::int64_t hole_since_ns_ = 0;
  std::int64_t last_heartbeat_ns_ = 0;
  std::uint64_t span_every_ = 0;  ///< cached hdr_->span_sample_every
  std::array<detail::PeerWatch, kMaxProducers> watches_;  ///< one per registry slot
};

/// One producing endpoint.  Attaches to an existing channel (with the
/// shm-level retry/backoff) and joins the registry.  Single-threaded.
class Producer {
 public:
  Producer() = default;
  ~Producer();
  Producer(Producer&&) noexcept;
  Producer& operator=(Producer&&) noexcept;
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  static std::optional<Producer> attach(const std::string& shm_name,
                                        const ProducerConfig& config = {},
                                        std::string* error = nullptr);

  /// Publishes one value.  Retries a full ring `full_retries` times with
  /// exponential backoff before giving up with kFull; checks consumer
  /// liveness on every retry and fails fast with kConsumerDead.  kFull
  /// and kConsumerDead are counted as drops (the overflow policy of this
  /// host is DropNewest — the caller keeps the value and may re-offer).
  PushResult push(std::uint64_t value);

  /// Zero-copy varlen publish: reserves `payload.size()` bytes in this
  /// producer's in-segment byte ring, copies the payload in (the only
  /// copy on the whole cross-process path), commits, and announces the
  /// record to the consumer via one control push.  The full lease
  /// protocol covers the record: a reaper that declared us dead wins the
  /// commit CAS race (kLeaseLost), and a record whose announcement could
  /// not be published is withdrawn so the consumer's record<->control
  /// correspondence stays exact.  Requires payload_ring_bytes > 0.
  PushResult push_record(std::span<const std::byte> payload);

  void heartbeat();

  /// Test-only: invoked between protocol steps (see CrashPoint).
  void set_crash_hook(std::function<void(CrashPoint)> hook) {
    crash_hook_ = std::move(hook);
  }

  ConservationReport report() const { return read_report(*hdr_); }
  TelemetrySnapshot telemetry() const { return merged_telemetry(*hdr_); }
  const ChannelHeader& header() const { return *hdr_; }
  std::size_t registry_index() const { return index_; }
  bool valid() const { return hdr_ != nullptr; }
  bool consumer_dead() const;

  /// Leaves the registry (clean detach).  Called by the destructor.
  void detach();

 private:
  void maybe_heartbeat();
  void ring_doorbell();

  ShmSegment segment_;
  ChannelHeader* hdr_ = nullptr;
  IpcSlot* slots_ = nullptr;
  VarIpcRing* ring_ = nullptr;  ///< this producer's payload ring (plane armed)
  std::size_t index_ = SIZE_MAX;
  ProducerConfig config_;
  std::int64_t last_heartbeat_ns_ = 0;
  std::uint64_t span_every_ = 0;  ///< cached hdr_->span_sample_every
  std::function<void(CrashPoint)> crash_hook_;
  detail::PeerWatch consumer_watch_;  ///< opened in attach()
};

}  // namespace pcpc::ipc
