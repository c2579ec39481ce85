// Fixed-capacity circular buffer.
//
// The single-threaded window behind MovingAverage (the rate predictor's
// history).  The hand-off queues live in pcpc/queue.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "pcpc/common/assert.hpp"

namespace pcpc {

/// Bounded FIFO over contiguous storage.  Not thread-safe.
template <typename T>
class RingBuffer {
 public:
  /// Creates a buffer holding at most `capacity` elements.
  explicit RingBuffer(std::size_t capacity) : storage_(capacity) {
    PCPC_ASSERT_MSG(capacity > 0, "ring buffer capacity must be positive");
  }

  /// Maximum number of elements.
  std::size_t capacity() const { return storage_.size(); }

  /// Current number of elements.
  std::size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == storage_.size(); }

  /// Appends an element; returns false (and drops it) when full.
  bool push(T value) {
    if (full()) return false;
    storage_[tail_] = std::move(value);
    tail_ = advance(tail_);
    ++size_;
    return true;
  }

  /// Removes and returns the oldest element; nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T value = std::move(storage_[head_]);
    head_ = advance(head_);
    --size_;
    return value;
  }

  /// Oldest element without removing it.  Buffer must be non-empty.
  const T& front() const {
    PCPC_ASSERT(!empty());
    return storage_[head_];
  }

  /// i-th oldest element (0 == front).  Index must be < size().
  const T& at(std::size_t i) const {
    PCPC_ASSERT(i < size_);
    return storage_[(head_ + i) % storage_.size()];
  }

  /// Removes all elements.
  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::size_t advance(std::size_t i) const { return (i + 1) % storage_.size(); }

  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pcpc
