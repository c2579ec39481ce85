// Shared-memory layout of one pcpc::ipc channel.
//
// One channel = one shm segment holding, in order: a ChannelHeader
// (immutable geometry + the shared atomics), a peer registry (1 consumer
// + kMaxProducers producer slots, each with a heartbeat), and the slot
// array of the crash-safe MPSC ring.  Everything is addressed by offset
// from the mapping base — no pointers — so every process resolves its
// own local addresses (see queue/placement.hpp for the same idea inside
// the in-process queues).
//
// ## The crash-safe slot protocol (epoch/lease over the Vyukov handshake)
//
// The in-process MpscSegQueue hands a slot from producer to consumer
// with a per-slot sequence word: claim ticket t, wait seq == t, write,
// publish seq = t+1; the consumer reads at seq == t+1 and re-sequences
// to t + N.  Across processes the new failure mode is a producer dying
// *between* those steps, which under strict in-order consumption wedges
// the consumer forever.  The ipc ring extends the handshake so every
// ticket's fate is decidable from shm state alone:
//
//   seq == t                 free: no producer reached the slot yet
//   seq == t|LOCK|owner      write lease held by producer `owner`
//   seq == t+1               published: value valid
//   seq == t+N               resolved: consumed or reclaimed
//
// The write lease is taken with a CAS (t -> t|LOCK|owner), carrying the
// claimant's registry index *in the same atomic word*, so there is no
// window in which a locked slot is anonymous.  Publication is also a
// CAS (t|LOCK|owner -> t+1): if the consumer reclaimed the slot in the
// meantime, the producer's CAS fails and it learns it lost the lease
// instead of corrupting the next revolution.  Recovery rules:
//
//   - a *free* hole at the consumer's head older than `lease_ns` is
//     reclaimed with CAS(t -> t+N) — safe against a live-but-slow
//     producer, whose lease CAS then fails (counted lease_lost);
//   - a *locked* slot is reclaimed only when its owner is provably dead
//     (registry heartbeat stale AND its process has terminated, read off
//     the consumer's pidfd for that registry incarnation, so a recycled
//     pid cannot pass for the dead owner) — a SIGSTOPped producer is
//     alive, keeps its lease, and resumes cleanly;
//   - when the reaper declares a producer dead it sweeps the whole ring
//     for that owner's leases (they may sit anywhere, not just at head)
//     before the registry slot can be reused — the role the per-slot
//     epoch plays in Jiffy-style reclamation schemes.
//
// Ticket-level conservation is exact by construction: every admitted
// ticket resolves to exactly one of consumed / reclaimed, so
//   tail_ticket == consumed + reclaimed + residue
// holds at every quiescent point, even with producers SIGKILLed between
// any two instructions.  (Attempt-level counters cannot be exact under
// SIGKILL — a death between a counter bump and the matching queue
// transition always leaves a one-off — which is why the conservation
// identity is anchored on the ticket word; DESIGN.md §10.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "pcpc/ipc/telemetry.hpp"
#include "pcpc/queue/placement.hpp"
#include "pcpc/queue/varlen.hpp"

namespace pcpc::ipc {

// v2: telemetry plane — epoch_mono_ns shared trace clock, span sampling
// period, per-peer PeerTelemetry blocks + retired_tel fold counters.
// v3: varlen payload plane — per-producer in-segment VarSpscRing regions
// (eager publish, OffsetSlots), record announcements carried as control
// values, byte-granular conservation tallies.
inline constexpr std::uint32_t kLayoutVersion = 3;

/// Registry capacity; bounded so the header has a fixed size.
inline constexpr std::size_t kMaxProducers = 16;

/// seq word bit layout: | LOCK(63) | owner+1 (62..48) | ticket (47..0) |
inline constexpr std::uint64_t kSeqLockBit = 1ULL << 63;
inline constexpr std::uint64_t kSeqTicketMask = (1ULL << 48) - 1;
inline constexpr unsigned kSeqOwnerShift = 48;

inline constexpr std::uint64_t seq_locked(std::uint64_t ticket, std::size_t owner) {
  return kSeqLockBit | (static_cast<std::uint64_t>(owner + 1) << kSeqOwnerShift) |
         (ticket & kSeqTicketMask);
}
inline constexpr bool seq_is_locked(std::uint64_t seq) {
  return (seq & kSeqLockBit) != 0;
}
inline constexpr std::uint64_t seq_ticket(std::uint64_t seq) {
  return seq & kSeqTicketMask;
}
inline constexpr std::size_t seq_owner(std::uint64_t seq) {
  return static_cast<std::size_t>((seq & ~kSeqLockBit) >> kSeqOwnerShift) - 1;
}

/// Peer registry slot states.
enum PeerState : std::uint32_t {
  kPeerFree = 0,
  kPeerJoining = 1,  ///< attach in progress (slot claimed, fields not final)
  kPeerActive = 2,
  kPeerDead = 3,  ///< reaped; ring sweep pending/complete, slot not yet reusable
};

/// One peer (producer or consumer) in the registry.  `heartbeat_ns` is
/// CLOCK_MONOTONIC and refreshed by the peer's own loop; the reaper
/// declares a peer dead only when the heartbeat is stale AND the process
/// has terminated, zombie included (a SIGSTOPped peer is stale but alive
/// — suspended, not dead).  The watcher keys its pidfd on (pid, epoch),
/// so each incarnation of a slot is probed through its own fd.
struct alignas(64) PeerSlot {
  std::atomic<std::uint32_t> state{kPeerFree};
  std::atomic<std::int32_t> pid{0};
  std::atomic<std::uint64_t> epoch{0};  ///< incarnation counter (keys the pidfd watch)
  std::atomic<std::int64_t> heartbeat_ns{0};
  std::atomic<std::uint64_t> pushed{0};      ///< completed (acknowledged) publishes
  std::atomic<std::uint64_t> dropped{0};     ///< counted rejects (full / consumer dead)
  std::atomic<std::uint64_t> lease_lost{0};  ///< pushes whose slot lease was reclaimed
};

/// One ring slot: the extended sequence word plus an 8-byte payload.
struct alignas(16) IpcSlot {
  std::atomic<std::uint64_t> seq{0};
  std::uint64_t value{0};
};

/// Consumer sleep states for the futex doorbell (see channel.hpp).
enum ConsumerSleepState : std::uint32_t {
  kConsumerAwake = 0,
  kConsumerSleeping = 1,
  kConsumerWoken = 2,  ///< a producer paid a futex_wake; token pending
};

/// Everything shared, at offset 0 of the segment payload.
struct alignas(64) ChannelHeader {
  // -- immutable geometry (written once by the creator) -------------------
  std::uint32_t version = kLayoutVersion;
  std::uint32_t abi_guard = 0;  ///< sizeof checks; attach refuses a mismatch
  std::uint64_t n_slots = 0;    ///< physical ring slots (> capacity + kMaxProducers)
  std::uint64_t capacity = 0;   ///< logical admission bound
  std::int64_t lease_ns = 0;
  std::int64_t heartbeat_period_ns = 0;
  std::int64_t heartbeat_timeout_ns = 0;  ///< k * Delta staleness bound
  std::uint64_t wake_threshold = 0;       ///< ring doorbell at fill >= this
  /// CLOCK_MONOTONIC at creation: the shared trace-clock zero.  Every
  /// event timestamp any peer records — producer-side shm ring events,
  /// the consumer's wakeup/span events — is `now_ns() - epoch_mono_ns`,
  /// so a merged trace has one clock domain regardless of which process
  /// recorded which event.
  std::int64_t epoch_mono_ns = 0;
  std::uint64_t span_sample_every = 0;  ///< 1-in-N lifecycle sampling; 0 = off
  /// Varlen payload plane (0 = plane absent; the segment then ends at the
  /// slot array exactly like v2).  When nonzero, every producer registry
  /// slot owns a VarSpscRing of this logical capacity (record footprint
  /// bytes) placed after the slot array; records are announced to the
  /// consumer as control values (see var_announce_value()).
  std::uint64_t payload_ring_bytes = 0;
  std::uint32_t payload_max_record = 0;  ///< max payload bytes per record

  // -- ring indices -------------------------------------------------------
  alignas(64) std::atomic<std::uint64_t> tail_ticket{0};  ///< admitted tickets
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< consumer cursor (published)

  // -- futex doorbell -----------------------------------------------------
  alignas(64) std::atomic<std::uint32_t> doorbell{0};
  std::atomic<std::uint32_t> consumer_state{kConsumerAwake};
  std::atomic<std::uint64_t> futex_wakes{0};  ///< paid wakes, producer-counted

  // -- consumer-side accounting ------------------------------------------
  alignas(64) std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<std::uint64_t> epoch_counter{1};
  std::atomic<std::uint64_t> peers_reaped{0};
  // Retired-peer tallies: a registry slot's per-peer counters are folded
  // in here when the slot is freed (clean detach or reap), *before* a
  // later joiner's join_peer() zeroes them — conservation reports must
  // survive registry-slot reuse.
  std::atomic<std::uint64_t> retired_pushed{0};
  std::atomic<std::uint64_t> retired_dropped{0};
  std::atomic<std::uint64_t> retired_lease_lost{0};
  // Varlen delivery tallies (consumer-written; the byte-side counters of
  // the conservation report live in the per-producer rings themselves,
  // which survive producer death because they are shm state).
  std::atomic<std::uint64_t> var_delivered_records{0};
  std::atomic<std::uint64_t> var_delivered_bytes{0};  ///< payload bytes handed out
  std::atomic<std::uint64_t> var_lost_records{0};  ///< announcements of reclaimed records
  /// Telemetry cells folded from retiring peers, indexed by TelCounter;
  /// same exactly-once exchange/add protocol as the three above.
  std::atomic<std::uint64_t> retired_tel[kTelCounterCount] = {};

  // -- peer registry ------------------------------------------------------
  PeerSlot consumer_peer;
  PeerSlot producers[kMaxProducers];

  // -- telemetry plane ----------------------------------------------------
  /// producer_tel[i] belongs to producers[i]'s current owner.
  PeerTelemetry producer_tel[kMaxProducers];
  // IpcSlot array follows at slots_offset().
};

inline constexpr std::size_t slots_offset() {
  return (sizeof(ChannelHeader) + 63) / 64 * 64;
}

// ---------------------------------------------------------------------------
// Varlen payload plane (v3)
// ---------------------------------------------------------------------------

/// The per-producer byte ring of the payload plane: single-producer
/// (each registry slot owns one), offset-addressed storage, constructed
/// with eager tail publication so every claim a dead producer made is
/// visible to the reaper.
using VarIpcRing = queue::VarSpscRing<queue::OffsetSlots>;

inline constexpr std::size_t var_align64(std::size_t n) { return (n + 63) / 64 * 64; }

/// Segment bytes one producer's var region occupies: the ring object
/// (shared cursors + counters) followed by its cell array.
inline std::size_t var_region_stride(std::size_t ring_bytes, std::uint32_t max_record) {
  return var_align64(sizeof(VarIpcRing)) +
         VarIpcRing::placement_bytes(ring_bytes, max_record);
}

/// Where the var regions start: right after the control-slot array
/// (n_slots is a multiple of 64 and sizeof(IpcSlot) == 16, so this is
/// always cache-line aligned).
inline constexpr std::size_t var_regions_offset(std::uint64_t n_slots) {
  return slots_offset() + static_cast<std::size_t>(n_slots) * sizeof(IpcSlot);
}

inline std::size_t segment_payload_bytes(std::uint64_t n_slots,
                                         std::size_t payload_ring_bytes = 0,
                                         std::uint32_t payload_max_record = 0) {
  std::size_t bytes = var_regions_offset(n_slots);
  if (payload_ring_bytes > 0) {
    bytes += kMaxProducers * var_region_stride(payload_ring_bytes, payload_max_record);
  }
  return bytes;
}

/// Resolves registry slot `idx`'s var ring inside a mapped segment (the
/// header sits at payload offset 0, so the ring is pure offset
/// arithmetic from it).  nullptr when the channel has no payload plane.
inline VarIpcRing* var_ring_at(ChannelHeader& hdr, std::size_t idx) {
  if (hdr.payload_ring_bytes == 0) return nullptr;
  char* base = reinterpret_cast<char*>(&hdr) + var_regions_offset(hdr.n_slots);
  return reinterpret_cast<VarIpcRing*>(
      base + idx * var_region_stride(static_cast<std::size_t>(hdr.payload_ring_bytes),
                                     hdr.payload_max_record));
}
inline const VarIpcRing* var_ring_at(const ChannelHeader& hdr, std::size_t idx) {
  return var_ring_at(const_cast<ChannelHeader&>(hdr), idx);
}

/// Announcement encoding: a record push publishes one control value
/// carrying (producer registry index, record byte offset in its ring).
/// The offset is monotonic; 56 bits last ~2 years at 1 GB/s per ring.
inline constexpr std::uint64_t kVarValueOffsetBits = 56;
inline constexpr std::uint64_t kVarValueOffsetMask =
    (std::uint64_t{1} << kVarValueOffsetBits) - 1;

inline constexpr std::uint64_t var_announce_value(std::size_t idx, std::uint64_t offset) {
  return (static_cast<std::uint64_t>(idx) << kVarValueOffsetBits) |
         (offset & kVarValueOffsetMask);
}
inline constexpr std::size_t var_announce_owner(std::uint64_t value) {
  return static_cast<std::size_t>(value >> kVarValueOffsetBits);
}
inline constexpr std::uint64_t var_announce_offset(std::uint64_t value) {
  return value & kVarValueOffsetMask;
}

/// Compile-time ABI fingerprint the attacher checks against the creator.
inline constexpr std::uint32_t abi_fingerprint() {
  return static_cast<std::uint32_t>(sizeof(ChannelHeader) * 1000003u +
                                    sizeof(IpcSlot) * 10007u +
                                    sizeof(PeerSlot) * 101u +
                                    sizeof(PeerTelemetry) * 13u +
                                    sizeof(VarIpcRing) * 7u + kLayoutVersion);
}

}  // namespace pcpc::ipc
