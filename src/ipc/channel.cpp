#include "pcpc/ipc/channel.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/logging.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::ipc {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool pid_alive(std::int32_t pid) {
  if (pid <= 0) return false;
  if (::kill(pid, 0) != 0) return errno != ESRCH;
#if defined(__linux__)
  // kill(pid, 0) succeeds on zombies; a SIGKILLed child not yet reaped by
  // its parent must still count as dead for lease purposes.
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return false;
  // Field 3 (state) follows the parenthesized comm, which may itself
  // contain spaces — scan past the LAST ')'.
  char buf[512];
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[got] = '\0';
  const char* close_paren = nullptr;
  for (const char* p = buf; *p != '\0'; ++p) {
    if (*p == ')') close_paren = p;
  }
  if (close_paren == nullptr || close_paren[1] == '\0') return false;
  return close_paren[2] != 'Z';
#else
  return true;
#endif
}

namespace detail {

PeerWatch::~PeerWatch() { close(); }

PeerWatch::PeerWatch(PeerWatch&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), gone_(std::exchange(other.gone_, false)),
      pid_(std::exchange(other.pid_, 0)), epoch_(std::exchange(other.epoch_, 0)) {}

PeerWatch& PeerWatch::operator=(PeerWatch&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    gone_ = std::exchange(other.gone_, false);
    pid_ = std::exchange(other.pid_, 0);
    epoch_ = std::exchange(other.epoch_, 0);
  }
  return *this;
}

void PeerWatch::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  gone_ = false;
}

void PeerWatch::watch(std::int32_t pid, std::uint64_t epoch) {
  if (pid == pid_ && epoch == epoch_) return;
  close();
  pid_ = pid;
  epoch_ = epoch;
  if (pid <= 0) return;
#if defined(SYS_pidfd_open)
  const long fd = ::syscall(SYS_pidfd_open, pid, 0);
  if (fd >= 0) {
    fd_ = static_cast<int>(fd);
  } else {
    gone_ = errno == ESRCH;
  }
#endif
}

bool PeerWatch::alive() const {
  if (gone_) return false;
  if (fd_ < 0) return pid_alive(pid_);
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, 0);
  if (ready < 0) return pid_alive(pid_);
  return ready == 0;
}

}  // namespace detail

const char* push_result_name(PushResult r) {
  switch (r) {
    case PushResult::kOk: return "ok";
    case PushResult::kFull: return "full";
    case PushResult::kConsumerDead: return "consumer_dead";
    case PushResult::kLeaseLost: return "lease_lost";
  }
  return "?";
}

ConservationReport read_report(const ChannelHeader& hdr) {
  ConservationReport r;
  r.admitted = hdr.tail_ticket.load(std::memory_order_acquire);
  r.consumed = hdr.consumed.load(std::memory_order_acquire);
  r.reclaimed = hdr.reclaimed.load(std::memory_order_acquire);
  r.residue = r.admitted - r.consumed - r.reclaimed;
  r.futex_wakes = hdr.futex_wakes.load(std::memory_order_acquire);
  r.doorbell = hdr.doorbell.load(std::memory_order_acquire);
  r.peers_reaped = hdr.peers_reaped.load(std::memory_order_acquire);
  r.acked_pushes = hdr.retired_pushed.load(std::memory_order_acquire);
  r.dropped = hdr.retired_dropped.load(std::memory_order_acquire);
  r.lease_lost = hdr.retired_lease_lost.load(std::memory_order_acquire);
  for (const PeerSlot& p : hdr.producers) {
    r.acked_pushes += p.pushed.load(std::memory_order_acquire);
    r.dropped += p.dropped.load(std::memory_order_acquire);
    r.lease_lost += p.lease_lost.load(std::memory_order_acquire);
  }
  if (hdr.payload_ring_bytes > 0) {
    r.var_delivered_records = hdr.var_delivered_records.load(std::memory_order_acquire);
    r.var_delivered_bytes = hdr.var_delivered_bytes.load(std::memory_order_acquire);
    r.var_lost_records = hdr.var_lost_records.load(std::memory_order_acquire);
    for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
      const queue::VarCounters c = var_ring_at(hdr, idx)->counters();
      r.var_admitted_bytes += c.tail_bytes;
      r.var_consumed_bytes += c.consumed_footprint_bytes;
      r.var_reclaimed_bytes += c.reclaimed_footprint_bytes;
      r.var_padding_bytes += c.released_padding_bytes;
      r.var_residue_bytes += c.tail_bytes - c.head_bytes;
    }
  }
  return r;
}

namespace {

constexpr std::size_t kSlotRound = 64;

std::uint64_t physical_slots(std::size_t capacity) {
  // Admission overshoot is bounded by the number of concurrent producers,
  // so capacity + kMaxProducers + 1 slots guarantee a claimed ticket's
  // slot is already re-sequenced (no producer-side wait, no wraparound
  // collision with an early-swept slot).
  const std::size_t needed = capacity + kMaxProducers + 1;
  return static_cast<std::uint64_t>((needed + kSlotRound - 1) / kSlotRound * kSlotRound);
}

ChannelHeader* header_of(const ShmSegment& seg) {
  return reinterpret_cast<ChannelHeader*>(seg.payload());
}

IpcSlot* slots_of(const ShmSegment& seg) {
  return reinterpret_cast<IpcSlot*>(static_cast<char*>(seg.payload()) + slots_offset());
}

/// Folds a retiring peer's counters into the header's durable tallies
/// and zeroes them, so a later joiner reusing the registry slot cannot
/// erase history the conservation report depends on.  The exchange keeps
/// the fold exactly-once; a report racing the fold can transiently
/// undercount but settles exact (the harness reads reports only after
/// waitpid, which orders after a clean child's own detach fold).
void retire_peer_counters(ChannelHeader& hdr, std::size_t idx) {
  PeerSlot& peer = hdr.producers[idx];
  hdr.retired_pushed.fetch_add(
      peer.pushed.exchange(0, std::memory_order_acq_rel), std::memory_order_relaxed);
  hdr.retired_dropped.fetch_add(
      peer.dropped.exchange(0, std::memory_order_acq_rel), std::memory_order_relaxed);
  hdr.retired_lease_lost.fetch_add(
      peer.lease_lost.exchange(0, std::memory_order_acq_rel),
      std::memory_order_relaxed);
  PeerTelemetry& tel = hdr.producer_tel[idx];
  for (std::size_t c = 0; c < kTelCounterCount; ++c) {
    hdr.retired_tel[c].fetch_add(tel.counters[c].exchange(0, std::memory_order_acq_rel),
                                 std::memory_order_relaxed);
  }
}

void join_peer(PeerSlot& peer, std::uint64_t epoch) {
  peer.pid.store(static_cast<std::int32_t>(::getpid()), std::memory_order_relaxed);
  peer.epoch.store(epoch, std::memory_order_relaxed);
  peer.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  peer.pushed.store(0, std::memory_order_relaxed);
  peer.dropped.store(0, std::memory_order_relaxed);
  peer.lease_lost.store(0, std::memory_order_relaxed);
  peer.state.store(kPeerActive, std::memory_order_release);
}

/// Dead for lease purposes: not Active in the registry, or Active with a
/// stale heartbeat and a terminated process (asked of `watch`, which
/// watches `peer`).  A stale-but-alive peer (SIGSTOP) is NOT dead.
bool peer_dead(const PeerSlot& peer, std::int64_t timeout_ns,
               const detail::PeerWatch& watch) {
  const std::uint32_t state = peer.state.load(std::memory_order_acquire);
  if (state != kPeerActive) return true;
  const std::int64_t hb = peer.heartbeat_ns.load(std::memory_order_acquire);
  if (now_ns() - hb <= timeout_ns) return false;
  return !watch.alive();
}

}  // namespace

// ---------------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------------

Consumer::~Consumer() {
  if (hdr_ != nullptr) {
    hdr_->consumer_peer.state.store(kPeerDead, std::memory_order_release);
    segment_.unlink();
  }
}

Consumer::Consumer(Consumer&& other) noexcept
    : segment_(std::move(other.segment_)), hdr_(other.hdr_), slots_(other.slots_),
      var_rings_(other.var_rings_), hole_ticket_(other.hole_ticket_),
      hole_since_ns_(other.hole_since_ns_),
      last_heartbeat_ns_(other.last_heartbeat_ns_), span_every_(other.span_every_),
      watches_(std::move(other.watches_)) {
  other.hdr_ = nullptr;
  other.slots_ = nullptr;
  other.var_rings_.fill(nullptr);
}

Consumer& Consumer::operator=(Consumer&& other) noexcept {
  if (this != &other) {
    this->~Consumer();
    new (this) Consumer(std::move(other));
  }
  return *this;
}

std::optional<Consumer> Consumer::create(const std::string& shm_name,
                                         const ChannelConfig& config,
                                         std::string* error) {
  PCPC_ASSERT_MSG(config.capacity > 0, "ipc channel capacity must be positive");
  const std::uint64_t n_slots = physical_slots(config.capacity);
  ShmSegment seg = ShmSegment::create(
      shm_name,
      segment_payload_bytes(n_slots, config.payload_ring_bytes,
                            config.payload_max_record),
      error);
  if (!seg.valid()) return std::nullopt;

  auto* hdr = new (seg.payload()) ChannelHeader();
  hdr->abi_guard = abi_fingerprint();
  hdr->n_slots = n_slots;
  hdr->capacity = config.capacity;
  hdr->lease_ns = config.lease_ns;
  hdr->heartbeat_period_ns = config.heartbeat_period_ns;
  hdr->heartbeat_timeout_ns = config.heartbeat_timeout_ns > 0
                                  ? config.heartbeat_timeout_ns
                                  : 8 * config.heartbeat_period_ns;
  hdr->wake_threshold = config.wake_threshold > 0
                            ? config.wake_threshold
                            : std::max<std::uint64_t>(1, config.capacity / 2);
  hdr->epoch_mono_ns = now_ns();
  hdr->span_sample_every = config.span_sample_every;
  IpcSlot* slots = slots_of(seg);
  for (std::uint64_t p = 0; p < n_slots; ++p) {
    auto* slot = new (&slots[p]) IpcSlot();
    slot->seq.store(p, std::memory_order_relaxed);
  }

  Consumer c;
  if (config.payload_ring_bytes > 0) {
    // Payload plane: one eager-publish SPSC byte ring per registry slot,
    // constructed in place so its cursors/counters are shm state every
    // process (and the reaper) can reach by offset.
    hdr->payload_ring_bytes = config.payload_ring_bytes;
    hdr->payload_max_record = config.payload_max_record;
    for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
      char* region = reinterpret_cast<char*>(var_ring_at(*hdr, idx));
      const std::size_t cells = var_align64(sizeof(VarIpcRing));
      auto* ring = new (region) VarIpcRing(
          config.payload_ring_bytes, /*max_bytes=*/0, config.payload_max_record,
          queue::Placement{region + cells,
                           VarIpcRing::placement_bytes(config.payload_ring_bytes,
                                                       config.payload_max_record)},
          /*eager_publish=*/true);
      c.var_rings_[idx] = ring;
    }
  }
  join_peer(hdr->consumer_peer, hdr->epoch_counter.load(std::memory_order_relaxed));
  seg.mark_ready();

  c.segment_ = std::move(seg);
  c.hdr_ = hdr;
  c.slots_ = slots;
  c.last_heartbeat_ns_ = now_ns();
  c.span_every_ = hdr->span_sample_every;
  return c;
}

void Consumer::heartbeat() {
  const std::int64_t now = now_ns();
  hdr_->consumer_peer.heartbeat_ns.store(now, std::memory_order_release);
  last_heartbeat_ns_ = now;
}

void Consumer::maybe_heartbeat() {
  if (now_ns() - last_heartbeat_ns_ >= hdr_->heartbeat_period_ns) heartbeat();
}

bool Consumer::has_visible_work() const {
  const std::uint64_t h = hdr_->head.load(std::memory_order_relaxed);
  const IpcSlot& slot = slots_[h % hdr_->n_slots];
  const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
  // Published at head, or already resolved out-of-band (drain will advance).
  return seq == h + 1 || seq == h + hdr_->n_slots;
}

bool Consumer::try_recover_head(std::uint64_t h, IpcSlot& slot, std::uint64_t seq) {
  if (seq_is_locked(seq)) {
    // Mid-publish lease.  Honor it while the owner is plausibly alive
    // (Active and pid present — a SIGSTOPped owner keeps its lease);
    // reclaim only on proof of death.
    const std::size_t owner = seq_owner(seq);
    PCPC_ASSERT_MSG(owner < kMaxProducers, "lease owner out of range");
    const std::uint32_t state =
        hdr_->producers[owner].state.load(std::memory_order_acquire);
    if (state == kPeerActive && producer_watch(owner).alive()) {
      return false;  // alive: wait for publish (or the reaper, later)
    }
    // Owner dead or already reaped: the lease can never be published.
    slot.seq.store(h + hdr_->n_slots, std::memory_order_release);
    hdr_->head.store(h + 1, std::memory_order_release);
    hdr_->reclaimed.fetch_add(1, std::memory_order_relaxed);
    hole_ticket_ = UINT64_MAX;
    return true;
  }

  if (seq == h) {
    // Free hole: a ticket was claimed but its producer never took the
    // lease (death between fetch_add and the lease CAS, or it is merely
    // slow).  Age it for lease_ns from first observation, then reclaim
    // with a CAS — a slow-but-alive producer loses the arbitration
    // cleanly (its lease CAS fails and it reports kLeaseLost).
    const std::int64_t now = now_ns();
    if (hole_ticket_ != h) {
      hole_ticket_ = h;
      hole_since_ns_ = now;
      return false;
    }
    if (now - hole_since_ns_ < hdr_->lease_ns) return false;
    std::uint64_t expected = h;
    if (slot.seq.compare_exchange_strong(expected, h + hdr_->n_slots,
                                         std::memory_order_acq_rel)) {
      hdr_->head.store(h + 1, std::memory_order_release);
      hdr_->reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
    // CAS failure means the producer showed up after all — next drain
    // pass will see the lease/publish.
    hole_ticket_ = UINT64_MAX;
    return true;
  }

  PCPC_ASSERT_MSG(false, "ipc slot in impossible state");
  return false;
}

std::size_t Consumer::drain_peer_telemetry(std::size_t idx) {
  obs::Session* session = obs::Session::current();
  if (session == nullptr) return 0;
  return telemetry_drain(hdr_->producer_tel[idx], [&](const obs::Event& e) {
    obs::Event merged = e;
    merged.origin = static_cast<std::uint16_t>(idx + 1);
    session->emit(merged);
  });
}

std::size_t Consumer::drain_telemetry() {
  if (obs::Session::current() == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    n += drain_peer_telemetry(idx);
  }
  return n;
}

detail::PeerWatch& Consumer::producer_watch(std::size_t idx) {
  const PeerSlot& peer = hdr_->producers[idx];
  detail::PeerWatch& watch = watches_[idx];
  watch.watch(peer.pid.load(std::memory_order_acquire),
              peer.epoch.load(std::memory_order_acquire));
  return watch;
}

std::size_t Consumer::reap() {
  const std::int64_t timeout = hdr_->heartbeat_timeout_ns;
  std::size_t reaped = 0;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    PeerSlot& peer = hdr_->producers[idx];
    if (peer.state.load(std::memory_order_acquire) != kPeerActive) continue;
    const std::int64_t hb = peer.heartbeat_ns.load(std::memory_order_acquire);
    const detail::PeerWatch& watch = producer_watch(idx);
    if (now_ns() - hb <= timeout || watch.alive()) continue;
    const std::int32_t pid = watch.pid();

    // Provably dead: stale heartbeat AND the process has terminated.
    // Sweep every lease it holds anywhere in the ring (not just at head)
    // before the registry slot becomes reusable — a recycled index must
    // never be blamed for a dead predecessor's lease.
    peer.state.store(kPeerDead, std::memory_order_release);
    std::size_t swept = 0;
    for (std::uint64_t p = 0; p < hdr_->n_slots; ++p) {
      IpcSlot& slot = slots_[p];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (!seq_is_locked(seq) || seq_owner(seq) != idx) continue;
      const std::uint64_t ticket = seq_ticket(seq);
      slot.seq.store(ticket + hdr_->n_slots, std::memory_order_release);
      hdr_->reclaimed.fetch_add(1, std::memory_order_relaxed);
      ++swept;
    }
    // Varlen plane: resolve every record the dead producer left claimed
    // in its byte ring — committed-but-unannounced records and in-flight
    // reservations alike become kReclaimed (the CAS means a zombie's
    // late commit loses its lease) — then reconcile the admission
    // counter and return the bytes, so a successor attaching to this
    // registry slot inherits an empty, exactly-accounted ring.
    // Announced-but-undrained records are resolved too; their dangling
    // announcements later drain as var_lost_records (offset mismatch).
    std::size_t var_resolved = 0;
    if (var_rings_[idx] != nullptr) {
      VarIpcRing& ring = *var_rings_[idx];
      var_resolved = ring.reclaim_all();
      ring.reconcile_admitted();
      ring.release_until(ring.claim_offset());
    }
    PCPC_WARN << "ipc: reaped dead producer idx=" << idx << " pid=" << pid
              << " (swept " << swept << " lease" << (swept == 1 ? "" : "s")
              << ", resolved " << var_resolved << " var record"
              << (var_resolved == 1 ? "" : "s") << ")";
    // Salvage whatever trace events the dead peer published before the
    // slot's ring inherits a new owner, then fold its metric cells into
    // the retired tallies — same no-counts-lost-to-SIGKILL rule as the
    // pushed/dropped fold.
    drain_peer_telemetry(idx);
    retire_peer_counters(*hdr_, idx);
    peer.pid.store(0, std::memory_order_relaxed);
    peer.state.store(kPeerFree, std::memory_order_release);
    hdr_->peers_reaped.fetch_add(1, std::memory_order_relaxed);
    ++reaped;
  }
  return reaped;
}

WakeKind Consumer::wait(std::int64_t timeout_ns) {
  maybe_heartbeat();
  // The idle edge is the natural merge point: pull producer-side trace
  // events out of the shm rings before parking (cheap when rings are
  // empty — one head/tail load per registry slot).
  drain_telemetry();
  if (has_visible_work()) return WakeKind::kPoll;

  const std::uint32_t ticket = hdr_->doorbell.load(std::memory_order_acquire);
  hdr_->consumer_state.store(kConsumerSleeping, std::memory_order_seq_cst);
  // Recheck after announcing sleep: a producer that published before the
  // store above may not have rung (below threshold), so we must not park
  // past visible work.
  WaitResult wr = WaitResult::kTimeout;
  if (!has_visible_work()) {
    wr = futex_wait(&hdr_->doorbell, ticket, timeout_ns);
  }
  // Consume the wake token (if any): every producer-side futex_wakes
  // increment created exactly one kConsumerWoken, and this exchange is
  // its unique consumption point — paid wakeups tally exactly.
  const std::uint32_t prev =
      hdr_->consumer_state.exchange(kConsumerAwake, std::memory_order_acq_rel);
  const bool paid = prev == kConsumerWoken;
  // Timestamp in the segment-epoch clock domain, like every other event
  // any peer of this channel records — merged traces must not mix
  // absolute CLOCK_MONOTONIC with per-process epochs.
  obs::note_wakeup(/*core=*/0, /*consumer=*/0, obs::kNoSlot, paid,
                   /*scheduled=*/!paid, now_ns() - hdr_->epoch_mono_ns);
  if (paid) return WakeKind::kDoorbell;
  return wr == WaitResult::kTimeout ? WakeKind::kTimeout : WakeKind::kPoll;
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

Producer::~Producer() { detach(); }

Producer::Producer(Producer&& other) noexcept
    : segment_(std::move(other.segment_)), hdr_(other.hdr_), slots_(other.slots_),
      ring_(other.ring_), index_(other.index_), config_(other.config_),
      last_heartbeat_ns_(other.last_heartbeat_ns_), span_every_(other.span_every_),
      crash_hook_(std::move(other.crash_hook_)),
      consumer_watch_(std::move(other.consumer_watch_)) {
  other.hdr_ = nullptr;
  other.slots_ = nullptr;
  other.ring_ = nullptr;
  other.index_ = SIZE_MAX;
}

Producer& Producer::operator=(Producer&& other) noexcept {
  if (this != &other) {
    detach();
    segment_ = std::move(other.segment_);
    hdr_ = other.hdr_;
    slots_ = other.slots_;
    ring_ = other.ring_;
    index_ = other.index_;
    config_ = other.config_;
    last_heartbeat_ns_ = other.last_heartbeat_ns_;
    span_every_ = other.span_every_;
    crash_hook_ = std::move(other.crash_hook_);
    consumer_watch_ = std::move(other.consumer_watch_);
    other.hdr_ = nullptr;
    other.slots_ = nullptr;
    other.ring_ = nullptr;
    other.index_ = SIZE_MAX;
  }
  return *this;
}

void Producer::detach() {
  if (hdr_ == nullptr || index_ == SIZE_MAX) {
    hdr_ = nullptr;
    return;
  }
  PeerSlot& peer = hdr_->producers[index_];
  retire_peer_counters(*hdr_, index_);
  peer.pid.store(0, std::memory_order_relaxed);
  peer.state.store(kPeerFree, std::memory_order_release);
  hdr_ = nullptr;
  slots_ = nullptr;
  ring_ = nullptr;
  index_ = SIZE_MAX;
}

std::optional<Producer> Producer::attach(const std::string& shm_name,
                                         const ProducerConfig& config,
                                         std::string* error) {
  ShmSegment seg = ShmSegment::attach(shm_name, config.attach, error);
  if (!seg.valid()) return std::nullopt;
  ChannelHeader* hdr = header_of(seg);
  if (hdr->version != kLayoutVersion || hdr->abi_guard != abi_fingerprint()) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): layout version/ABI mismatch";
    }
    return std::nullopt;
  }
  // The consumer's registry slot is written once, by create(), so the
  // watch opened here serves every later liveness check of this producer.
  detail::PeerWatch consumer_watch;
  consumer_watch.watch(hdr->consumer_peer.pid.load(std::memory_order_acquire),
                       hdr->consumer_peer.epoch.load(std::memory_order_acquire));
  if (peer_dead(hdr->consumer_peer, hdr->heartbeat_timeout_ns, consumer_watch)) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): consumer is dead";
    }
    return std::nullopt;
  }
  std::size_t index = SIZE_MAX;
  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    PeerSlot& peer = hdr->producers[idx];
    std::uint32_t expected = kPeerFree;
    if (peer.state.compare_exchange_strong(expected, kPeerJoining,
                                           std::memory_order_acq_rel)) {
      join_peer(peer, hdr->epoch_counter.fetch_add(1, std::memory_order_acq_rel));
      index = idx;
      break;
    }
  }
  if (index == SIZE_MAX) {
    if (error != nullptr) {
      *error = "attach(" + shm_name + "): producer registry full";
    }
    return std::nullopt;
  }

  Producer p;
  p.hdr_ = hdr;
  p.slots_ = slots_of(seg);
  p.segment_ = std::move(seg);
  p.index_ = index;
  p.config_ = config;
  p.last_heartbeat_ns_ = now_ns();
  p.span_every_ = hdr->span_sample_every;
  p.consumer_watch_ = std::move(consumer_watch);
  if (hdr->payload_ring_bytes > 0) {
    // Adopt this registry slot's byte ring: stamp our identity into
    // future record headers and rebuild the producer-private cursors
    // from the shared state (the predecessor may have died mid-record;
    // the reaper resolved the ring before freeing the slot).
    p.ring_ = var_ring_at(*hdr, index);
    p.ring_->set_owner(static_cast<std::uint16_t>(index + 1));
    p.ring_->producer_attach();
  }
  return p;
}

void Producer::heartbeat() {
  const std::int64_t now = now_ns();
  hdr_->producers[index_].heartbeat_ns.store(now, std::memory_order_release);
  last_heartbeat_ns_ = now;
}

void Producer::maybe_heartbeat() {
  if (now_ns() - last_heartbeat_ns_ >= hdr_->heartbeat_period_ns) heartbeat();
}

bool Producer::consumer_dead() const {
  return peer_dead(hdr_->consumer_peer, hdr_->heartbeat_timeout_ns, consumer_watch_);
}

void Producer::ring_doorbell() {
  const std::uint64_t fill = hdr_->tail_ticket.load(std::memory_order_relaxed) -
                             hdr_->head.load(std::memory_order_acquire);
  if (fill < hdr_->wake_threshold) return;
  hdr_->doorbell.fetch_add(1, std::memory_order_release);
  std::uint32_t expected = kConsumerSleeping;
  if (hdr_->consumer_state.compare_exchange_strong(expected, kConsumerWoken,
                                                   std::memory_order_acq_rel)) {
    // We won the right to wake: count the paid wake at the exact point it
    // costs a syscall (the identity the obs ledger is checked against).
    // The per-peer telemetry cell is bumped in the same branch, so the
    // merged cross-process paid-wake total equals futex_wakes identically.
    hdr_->futex_wakes.fetch_add(1, std::memory_order_relaxed);
    telemetry_bump(hdr_->producer_tel[index_], kTelPaidWakes);
    futex_wake(&hdr_->doorbell, 1);
  } else {
    telemetry_bump(hdr_->producer_tel[index_], kTelDoorbellFree);
  }
}

PushResult Producer::push(std::uint64_t value) {
  PeerSlot& me = hdr_->producers[index_];
  maybe_heartbeat();
  // Entry timestamp for the produce stage.  Read the clock only when
  // spans are armed on this channel (one branch otherwise); whether THIS
  // item is sampled is only decidable after the ticket claim below.
  std::int64_t span_enter_ns = 0;
  if (span_every_ != 0) span_enter_ns = now_ns();

  // Admission: optimistic fullness pre-check WITHOUT claiming a ticket.
  // A rejected push must leave no trace in the ring, or a producer dying
  // between "claim" and "un-claim" would leak tickets and break the
  // conservation identity.  Overshoot past capacity is bounded by the
  // number of concurrent producers (each can pass the check once before
  // its fetch_add lands), which physical_slots() budgets for.
  std::int64_t backoff_ns = config_.initial_backoff_ns;
  for (int attempt = 0;; ++attempt) {
    if (consumer_dead()) {
      me.dropped.fetch_add(1, std::memory_order_relaxed);
      return PushResult::kConsumerDead;
    }
    const std::uint64_t tail = hdr_->tail_ticket.load(std::memory_order_relaxed);
    const std::uint64_t head = hdr_->head.load(std::memory_order_acquire);
    if (tail - head < hdr_->capacity) break;
    if (attempt >= config_.full_retries) {
      me.dropped.fetch_add(1, std::memory_order_relaxed);
      return PushResult::kFull;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
    backoff_ns = std::min(backoff_ns * 2, config_.max_backoff_ns);
    maybe_heartbeat();
  }

  const std::uint64_t t = hdr_->tail_ticket.fetch_add(1, std::memory_order_acq_rel);
  if (crash_hook_) crash_hook_(CrashPoint::kAfterClaim);

  // The slot is already re-sequenced to t by the time the ticket exists
  // (n_slots > capacity + kMaxProducers), so the lease CAS can only fail
  // if the consumer aged us out as a hole — we were descheduled/stopped
  // for longer than lease_ns between the fetch_add above and here.
  IpcSlot& slot = slots_[t % hdr_->n_slots];
  std::uint64_t expected = t;
  if (!slot.seq.compare_exchange_strong(expected, seq_locked(t, index_),
                                        std::memory_order_acq_rel)) {
    me.lease_lost.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kLeaseLost;
  }
  if (crash_hook_) crash_hook_(CrashPoint::kMidPublish);

  slot.value = value;
  expected = seq_locked(t, index_);
  if (!slot.seq.compare_exchange_strong(expected, t + 1,
                                        std::memory_order_acq_rel)) {
    // Swept mid-publish: only possible if the consumer proved us dead
    // (a fallback pid_alive probe mistook our pid for gone).  Count and
    // report rather than corrupt the next revolution with a blind store.
    me.lease_lost.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kLeaseLost;
  }
  if (crash_hook_) crash_hook_(CrashPoint::kAfterPublish);

  me.pushed.fetch_add(1, std::memory_order_relaxed);
  if (span_every_ != 0 && t % span_every_ == 0) {
    // Sampled item: publish produce/enqueue stages into this peer's shm
    // trace ring, in the segment-epoch clock domain.  The ticket is the
    // item id — the consumer derives the same id for its stages without
    // any payload tagging.
    PeerTelemetry& tel = hdr_->producer_tel[index_];
    obs::Event e;
    e.ts_ns = span_enter_ns - hdr_->epoch_mono_ns;
    e.arg0 = static_cast<std::int64_t>(t);
    e.arg1 = static_cast<std::int64_t>(obs::ItemStage::kProduce);
    e.consumer = static_cast<std::uint32_t>(index_);  ///< the pair id
    e.kind = obs::EventKind::kItemStage;
    telemetry_push(tel, e);
    e.ts_ns = now_ns() - hdr_->epoch_mono_ns;
    e.arg1 = static_cast<std::int64_t>(obs::ItemStage::kEnqueue);
    telemetry_push(tel, e);
    telemetry_bump(tel, kTelSpanStages, 2);
  }
  ring_doorbell();
  return PushResult::kOk;
}

PushResult Producer::push_record(std::span<const std::byte> payload) {
  PCPC_ASSERT_MSG(ring_ != nullptr, "push_record on a channel without a payload plane");
  PCPC_ASSERT_MSG(payload.size() <= hdr_->payload_max_record,
                  "record exceeds the channel's max payload");
  PeerSlot& me = hdr_->producers[index_];
  maybe_heartbeat();

  // Byte-ring admission, with the same bounded retry/backoff + liveness
  // loop as the control ring (the var ring only frees space when the
  // consumer drains, so a full ring means a slow/absent consumer).
  queue::VarReservation r;
  std::int64_t backoff_ns = config_.initial_backoff_ns;
  for (int attempt = 0;; ++attempt) {
    if (consumer_dead()) {
      me.dropped.fetch_add(1, std::memory_order_relaxed);
      return PushResult::kConsumerDead;
    }
    if (ring_->try_reserve(static_cast<std::uint32_t>(payload.size()), r)) break;
    if (attempt >= config_.full_retries) {
      me.dropped.fetch_add(1, std::memory_order_relaxed);
      return PushResult::kFull;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
    backoff_ns = std::min(backoff_ns * 2, config_.max_backoff_ns);
    maybe_heartbeat();
  }
  if (crash_hook_) crash_hook_(CrashPoint::kAfterReserve);

  std::memcpy(r.data, payload.data(), payload.size());
  if (!ring_->commit(r)) {
    // A reaper decided we were dead mid-record and reclaimed the
    // reservation; the commit CAS losing is how we learn it.
    me.lease_lost.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kLeaseLost;
  }
  if (crash_hook_) crash_hook_(CrashPoint::kAfterCommit);

  // Announce: one control value carrying (registry index, record
  // offset).  push() brings its own retry/backoff, liveness checks,
  // crash hooks, span sampling, and doorbell.
  const PushResult res = push(var_announce_value(index_, r.offset));
  if (res != PushResult::kOk) {
    // Committed but unannounceable (control ring full / consumer dead /
    // control lease lost): withdraw the record so the consumer's
    // record<->announcement correspondence stays exact.  The bytes are
    // counted reclaimed when the window releases.
    ring_->abandon(r);
  }
  return res;
}

}  // namespace pcpc::ipc
