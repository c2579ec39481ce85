// In-memory span tracer of the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the library's public API.  Each span has a name, a layer, start
// and end (mono_ns), its parent (the enclosing span on the same thread),
// a lane (the pair or channel it serves) and an item id (0 = structural,
// not tied to one item; spans of one item share its id).  Every span is
// timed, so per-layer self time — a span's duration minus the part its
// child spans cover — is exact; only a sample of item spans (and all
// structural spans, up to a cap) is kept for the path analysis and the
// JSON-lines dump written at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span layers, named after the library's modules (trace is timed as
/// set-up, not with spans).  `handler` is the benchmark's own per-item
/// work (the batch handler and the ipc record callback); `idle` is
/// blocking time (futex waits), kept out of every layer's self time but on
/// the blocking path of the items it delays.
enum class Layer : std::uint8_t { kSim, kCore, kRuntime, kIpc, kHandler, kIdle };
inline constexpr std::size_t kLayerCount = 6;
const char* layer_name(Layer layer);

inline constexpr std::uint32_t kAnyLane = 0xffffffffu;

struct Span {
  const char* name = nullptr;
  std::uint64_t item = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t lane = kAnyLane;
  std::uint16_t thread = 0;
  Layer layer = Layer::kHandler;
};

/// One sampled item's end-to-end interval, for the path analysis.
struct ItemPath {
  std::uint64_t item = 0;
  std::uint32_t lane = 0;
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNotStored = 0xffffffffu;

  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t stored;
    Layer layer;
  };
  struct ThreadLog {
    std::uint16_t id = 0;
    std::vector<Span> spans;
    std::vector<Frame> stack;
    std::array<std::int64_t, kLayerCount> self_ns{};
  };

  /// Installs the tracer globally (one at a time).  Item spans are kept
  /// for items whose id is a multiple of `item_sample_every`.
  Tracer(std::size_t spans_per_thread, std::uint64_t item_sample_every);
  /// Uninstalls.  Every traced thread must have finished its spans.
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr when tracing is off.
  static Tracer* current() { return g_current.load(std::memory_order_acquire); }

  ThreadLog& local();
  std::size_t capacity() const { return capacity_; }
  bool keeps(std::uint64_t item) const { return item == 0 || item % every_ == 0; }

  /// Self time per layer, summed over threads.  Call after the traced
  /// threads have been joined.
  std::array<std::int64_t, kLayerCount> self_ns() const;

  /// Share of the items' summed latency covered by the spans on their
  /// blocking path: the item's own spans plus the structural spans of its
  /// lane, clipped to [due, done].
  double path_fraction(const std::vector<ItemPath>& items) const;

  /// Writes every kept span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  static std::atomic<Tracer*> g_current;

  std::size_t capacity_;
  std::uint64_t every_;
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Times one call into a layer.  Free when no tracer is installed.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, std::uint32_t lane = kAnyLane,
             std::uint64_t item = 0);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration (0 when not tracing).
  std::int64_t close();

 private:
  Tracer::ThreadLog* log_ = nullptr;
};

}  // namespace perfbench
