#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

std::atomic<Tracer*> Tracer::g_current{nullptr};

namespace {
std::atomic<std::uint64_t> g_generation{0};
thread_local Tracer::ThreadLog* t_log = nullptr;
thread_local std::uint64_t t_generation = 0;
}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kRuntime: return "runtime";
    case Layer::kIpc: return "ipc";
    case Layer::kHandler: return "handler";
    case Layer::kIdle: return "idle";
  }
  return "?";
}

Tracer::Tracer(std::size_t spans_per_thread, std::uint64_t item_sample_every)
    : capacity_(spans_per_thread),
      every_(std::max<std::uint64_t>(1, item_sample_every)),
      generation_(g_generation.fetch_add(1) + 1) {
  g_current.store(this, std::memory_order_release);
}

Tracer::~Tracer() { g_current.store(nullptr, std::memory_order_release); }

Tracer::ThreadLog& Tracer::local() {
  if (t_log == nullptr || t_generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(std::min<std::size_t>(capacity_, 1u << 14));
    const std::lock_guard lock(mutex_);
    log->id = static_cast<std::uint16_t>(logs_.size());
    t_log = log.get();
    t_generation = generation_;
    logs_.push_back(std::move(log));
  }
  return *t_log;
}

std::array<std::int64_t, kLayerCount> Tracer::self_ns() const {
  const std::lock_guard lock(mutex_);
  std::array<std::int64_t, kLayerCount> total{};
  for (const auto& log : logs_) {
    for (std::size_t l = 0; l < kLayerCount; ++l) total[l] += log->self_ns[l];
  }
  return total;
}

double Tracer::path_fraction(const std::vector<ItemPath>& items) const {
  const std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> by_item;
  std::unordered_map<std::uint32_t, std::vector<const Span*>> by_lane;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (s.end_ns < s.start_ns) continue;  // still open: not a finished span
      if (s.item != 0) {
        by_item[s.item].push_back(&s);
      } else {
        by_lane[s.lane].push_back(&s);
      }
    }
  }
  std::unordered_map<std::uint32_t, std::int64_t> longest;
  for (auto& [lane, spans] : by_lane) {
    std::sort(spans.begin(), spans.end(),
              [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
    std::int64_t m = 0;
    for (const Span* s : spans) m = std::max(m, s->end_ns - s->start_ns);
    longest[lane] = m;
  }

  double covered_sum = 0.0;
  double latency_sum = 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const ItemPath& it : items) {
    if (it.done_ns <= it.due_ns) continue;
    cover.clear();
    const auto clip = [&](const Span* s) {
      const std::int64_t a = std::max(s->start_ns, it.due_ns);
      const std::int64_t b = std::min(s->end_ns, it.done_ns);
      if (b > a) cover.emplace_back(a, b);
    };
    if (const auto found = by_item.find(it.item); found != by_item.end()) {
      for (const Span* s : found->second) clip(s);
    }
    for (const std::uint32_t lane : {it.lane, kAnyLane}) {
      const auto found = by_lane.find(lane);
      if (found == by_lane.end()) continue;
      const auto& spans = found->second;
      const std::int64_t from = it.due_ns - longest[lane];
      auto s = std::lower_bound(spans.begin(), spans.end(), from,
                                [](const Span* sp, std::int64_t t) { return sp->start_ns < t; });
      for (; s != spans.end() && (*s)->start_ns < it.done_ns; ++s) clip(*s);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = it.due_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    covered_sum += static_cast<double>(covered);
    latency_sum += static_cast<double>(it.done_ns - it.due_ns);
  }
  return latency_sum > 0.0 ? covered_sum / latency_sum : 0.0;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::lock_guard lock(mutex_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      std::fprintf(out,
                   "{\"thread\":%u,\"id\":%zu,\"parent\":%ld,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"lane\":%ld,\"item\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned>(s.thread), i,
                   s.parent == kNotStored ? -1L : static_cast<long>(s.parent), s.name,
                   layer_name(s.layer), s.lane == kAnyLane ? -1L : static_cast<long>(s.lane),
                   static_cast<unsigned long long>(s.item),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, Layer layer, std::uint32_t lane,
                       std::uint64_t item) {
  Tracer* tracer = Tracer::current();
  if (tracer == nullptr) return;
  log_ = &tracer->local();
  Tracer::Frame frame{mono_ns(), 0, Tracer::kNotStored, layer};
  if (tracer->keeps(item) && log_->spans.size() < tracer->capacity()) {
    frame.stored = static_cast<std::uint32_t>(log_->spans.size());
    Span span;
    span.name = name;
    span.item = item;
    span.start_ns = frame.start_ns;
    span.end_ns = -1;
    span.parent = log_->stack.empty() ? Tracer::kNotStored : log_->stack.back().stored;
    span.lane = lane;
    span.thread = log_->id;
    span.layer = layer;
    log_->spans.push_back(span);
  }
  log_->stack.push_back(frame);
}

std::int64_t ScopedSpan::close() {
  if (log_ == nullptr) return 0;
  const std::int64_t end = mono_ns();
  const Tracer::Frame frame = log_->stack.back();
  log_->stack.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  log_->self_ns[static_cast<std::size_t>(frame.layer)] += duration - frame.child_ns;
  if (!log_->stack.empty()) log_->stack.back().child_ns += duration;
  if (frame.stored != Tracer::kNotStored) log_->spans[frame.stored].end_ns = end;
  log_ = nullptr;
  return duration;
}

}  // namespace perfbench
