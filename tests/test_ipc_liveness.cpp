// Peer-liveness probes of the pcpc::ipc host.
//
// Two probes answer "has this peer process terminated?": the stateless
// pid_alive(pid) and the pidfd-backed detail::PeerWatch the endpoints
// hold.  Both must agree on every process shape the crash protocol meets:
//
//   - a live process (the test itself) is alive; pid <= 0 is dead;
//   - a SIGKILLed child its parent has not waited for (a zombie) is dead;
//   - a SIGSTOPped child is alive — suspended, not dead — until killed;
//   - a watch opened on a live child reads dead once the child is killed
//     and reaped;
//   - a watch follows its registry slot: a new incarnation (pid, epoch)
//     reopens it, so a dead predecessor's verdict never sticks to the
//     live successor in the same slot;
//   - moves hand the pidfd over, and every pidfd an endpoint opens is
//     closed by its destructor.
//
// The fork-based tests run under ASan/UBSan and self-skip under TSan,
// whose runtime does not survive fork-without-exec in multithreaded
// images.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "pcpc/ipc/channel.hpp"

#if defined(__SANITIZE_THREAD__)
#define PCPC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCPC_TSAN 1
#endif
#endif
#ifndef PCPC_TSAN
#define PCPC_TSAN 0
#endif

#define PCPC_SKIP_UNDER_TSAN()                                              \
  do {                                                                      \
    if (PCPC_TSAN) GTEST_SKIP() << "fork-based harness incompatible with TSan"; \
  } while (0)

namespace pcpc::ipc {
namespace {

/// A forked child that runs `body` (if any) and then sleeps until
/// signalled — children never return into gtest.  The destructor
/// SIGKILLs and reaps it, so a failed assertion never leaks a process.
class Child {
 public:
  explicit Child(const std::function<void()>& body = {}) : pid_(::fork()) {
    if (pid_ == 0) {
      if (body) body();
      for (;;) ::pause();
    }
  }
  ~Child() { kill_and_reap(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// SIGKILLs the child and blocks until it has exited, leaving it a
  /// zombie (WNOWAIT: the exit status stays unreaped).
  bool kill_to_zombie() {
    siginfo_t info{};
    return ::kill(pid_, SIGKILL) == 0 &&
           ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOWAIT) == 0;
  }

  void kill_and_reap() {
    if (pid_ <= 0 || reaped_) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    reaped_ = ::waitpid(pid_, &status, 0) == pid_;
  }

 private:
  pid_t pid_;
  bool reaped_ = false;
};

TEST(IpcLiveness, OwnPidAliveNonPositivePidDead) {
  const auto self = static_cast<std::int32_t>(::getpid());
  EXPECT_TRUE(pid_alive(self));
  EXPECT_FALSE(pid_alive(0));
  EXPECT_FALSE(pid_alive(-1));

  detail::PeerWatch watch;
  EXPECT_FALSE(watch.alive()) << "a default watch watches pid 0";
  watch.watch(self, 1);
  EXPECT_TRUE(watch.alive());
  watch.watch(0, 2);
  EXPECT_FALSE(watch.alive());
  watch.watch(-1, 3);
  EXPECT_FALSE(watch.alive());
}

TEST(IpcLiveness, UnreapedKilledChildIsDead) {
  PCPC_SKIP_UNDER_TSAN();
  Child child;
  ASSERT_GT(child.pid(), 0) << "fork failed";
  detail::PeerWatch opened_live;
  opened_live.watch(child.pid(), 1);
  EXPECT_TRUE(opened_live.alive());

  ASSERT_TRUE(child.kill_to_zombie());
  EXPECT_FALSE(pid_alive(child.pid())) << "a zombie must read dead";
  EXPECT_FALSE(opened_live.alive()) << "watch opened before the kill";
  detail::PeerWatch opened_zombie;
  opened_zombie.watch(child.pid(), 1);
  EXPECT_FALSE(opened_zombie.alive()) << "watch opened on the zombie";
}

TEST(IpcLiveness, StoppedChildIsAliveUntilKilled) {
  PCPC_SKIP_UNDER_TSAN();
  Child child;
  ASSERT_GT(child.pid(), 0) << "fork failed";
  detail::PeerWatch watch;
  watch.watch(child.pid(), 1);

  ASSERT_EQ(::kill(child.pid(), SIGSTOP), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child.pid(), &status, WUNTRACED), child.pid());
  ASSERT_TRUE(WIFSTOPPED(status));
  EXPECT_TRUE(pid_alive(child.pid())) << "stopped is suspended, not dead";
  EXPECT_TRUE(watch.alive()) << "stopped is suspended, not dead";

  ASSERT_EQ(::kill(child.pid(), SIGCONT), 0);
  EXPECT_TRUE(pid_alive(child.pid()));
  EXPECT_TRUE(watch.alive());

  ASSERT_TRUE(child.kill_to_zombie());
  EXPECT_FALSE(pid_alive(child.pid()));
  EXPECT_FALSE(watch.alive());
}

TEST(IpcLiveness, WatchOnLiveChildReadsDeadAfterKillAndReap) {
  PCPC_SKIP_UNDER_TSAN();
  Child child;
  ASSERT_GT(child.pid(), 0) << "fork failed";
  detail::PeerWatch watch;
  watch.watch(child.pid(), 7);
  EXPECT_TRUE(watch.alive());

  child.kill_and_reap();
  EXPECT_FALSE(watch.alive());
  EXPECT_FALSE(pid_alive(child.pid()));
}

TEST(IpcLiveness, MovesHandOverThePidfd) {
  const auto self = static_cast<std::int32_t>(::getpid());
  detail::PeerWatch first;
  first.watch(self, 1);
  detail::PeerWatch second(std::move(first));
  EXPECT_TRUE(second.alive());
  EXPECT_EQ(second.epoch(), 1u);
  EXPECT_FALSE(first.alive()) << "a moved-from watch is a default watch";
  EXPECT_EQ(first.pid(), 0);

  detail::PeerWatch third;
  third.watch(self, 2);
  third = std::move(second);
  EXPECT_TRUE(third.alive());
  EXPECT_EQ(third.epoch(), 1u);
  EXPECT_FALSE(second.alive()) << "a moved-from watch is a default watch";
}

TEST(IpcLiveness, WatchReopensWhenEpochChanges) {
  PCPC_SKIP_UNDER_TSAN();
  const auto self = static_cast<std::int32_t>(::getpid());
  Child child;
  ASSERT_GT(child.pid(), 0) << "fork failed";
  detail::PeerWatch watch;
  watch.watch(child.pid(), 1);
  child.kill_and_reap();
  EXPECT_FALSE(watch.alive());

  // The same incarnation again: no reopen, the pinned verdict stands.
  watch.watch(child.pid(), 1);
  EXPECT_FALSE(watch.alive());

  // A new incarnation in the slot: the watch follows it.
  watch.watch(self, 2);
  EXPECT_EQ(watch.epoch(), 2u);
  EXPECT_EQ(watch.pid(), self);
  EXPECT_TRUE(watch.alive());
  watch.watch(self, 3);
  EXPECT_EQ(watch.epoch(), 3u);
  EXPECT_TRUE(watch.alive());
}

std::string unique_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/pcpc_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

/// Waits until `child` holds registry slot 0 of `consumer`'s channel.
bool holds_slot_zero(const Consumer& consumer, const Child& child) {
  const PeerSlot& slot = consumer.header().producers[0];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (slot.state.load(std::memory_order_acquire) != kPeerActive ||
         slot.pid.load(std::memory_order_acquire) != child.pid()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(IpcLiveness, ReaperFollowsRegistrySlotAcrossIncarnations) {
  PCPC_SKIP_UNDER_TSAN();
  ChannelConfig cfg;
  cfg.capacity = 64;
  cfg.heartbeat_period_ns = 500'000;
  cfg.heartbeat_timeout_ns = 2'000'000;
  const std::string name = unique_name("liveness");
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  const auto stale = std::chrono::nanoseconds(4 * cfg.heartbeat_timeout_ns);
  const auto attach_and_sleep = [&name] {
    auto producer = Producer::attach(name);
    if (!producer.has_value()) _exit(2);
    for (;;) ::pause();
  };

  // First incarnation of slot 0: SIGKILLed, left a zombie, reaped.
  Child first(attach_and_sleep);
  ASSERT_TRUE(holds_slot_zero(*consumer, first));
  const std::uint64_t first_epoch = consumer->header().producers[0].epoch.load();
  EXPECT_EQ(consumer->reap(), 0u);
  ASSERT_TRUE(first.kill_to_zombie());
  std::this_thread::sleep_for(stale);
  EXPECT_EQ(consumer->reap(), 1u);

  // Second incarnation of the same slot: stopped with a stale heartbeat,
  // so only the process probe stands between it and the reaper.  A watch
  // still bound to the dead first incarnation would reap it.
  Child second(attach_and_sleep);
  ASSERT_TRUE(holds_slot_zero(*consumer, second));
  EXPECT_NE(consumer->header().producers[0].epoch.load(), first_epoch);
  ASSERT_EQ(::kill(second.pid(), SIGSTOP), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(second.pid(), &status, WUNTRACED), second.pid());
  std::this_thread::sleep_for(stale);
  EXPECT_EQ(consumer->reap(), 0u) << "a stopped successor is alive";

  ASSERT_TRUE(second.kill_to_zombie());
  EXPECT_EQ(consumer->reap(), 1u);
  EXPECT_EQ(consumer->report().peers_reaped, 2u);
}

std::size_t open_fds() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator{}));
}

TEST(IpcLiveness, EndpointsMoveAndCloseTheirWatches) {
  const std::size_t before = open_fds();
  {
    ChannelConfig cfg;
    cfg.capacity = 64;
    cfg.heartbeat_timeout_ns = 2'000'000;
    const std::string name = unique_name("fds");
    auto consumer = Consumer::create(name, cfg);
    ASSERT_TRUE(consumer.has_value());
    auto first = Producer::attach(name);
    auto second = Producer::attach(name);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    consumer->reap();  // opens the consumer's watches on both slots
    EXPECT_GT(open_fds(), before);

    // Moves hand the fds over; the moved-to objects close them.
    Consumer moved_consumer = std::move(*consumer);
    Producer moved_producer;
    moved_producer = std::move(*first);
    second->detach();
    EXPECT_EQ(moved_consumer.reap(), 0u);
    // With the consumer's heartbeat stale, only the moved watch can
    // vouch that the consumer is alive.
    std::this_thread::sleep_for(std::chrono::nanoseconds(4 * cfg.heartbeat_timeout_ns));
    EXPECT_FALSE(moved_producer.consumer_dead());
  }
  EXPECT_EQ(open_fds(), before);
}

}  // namespace
}  // namespace pcpc::ipc
