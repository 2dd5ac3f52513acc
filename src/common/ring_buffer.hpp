#pragma once
// RingBuffer<T, N>: a fixed-capacity FIFO with inline storage.
//
// Replaces the std::deque-backed VC flit FIFOs (paper Sec 3.3: 1- and
// 3-flit-deep latch FIFOs per VC) and the free-VC queues. Capacity is a
// compile-time bound; the *usable* depth may be restricted further at
// runtime by the owner (InputVc::configure), matching the hardware's
// per-message-class buffer depths. Push/pop never allocate.
//
// Indexed access is relative to the front: at(0) is the oldest element.

#include <array>
#include <utility>

#include "common/assert.hpp"

namespace noc {

template <typename T, int N>
class RingBuffer {
 public:
  static constexpr int capacity() { return N; }

  int size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == N; }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

  void push_back(const T& v) {
    NOC_EXPECTS(count_ < N);
    slots_[static_cast<size_t>(index(count_))] = v;
    ++count_;
  }

  /// Remove and return the oldest element.
  T pop_front() {
    NOC_EXPECTS(count_ > 0);
    T v = std::move(slots_[static_cast<size_t>(head_)]);
    head_ = (head_ + 1) % N;
    --count_;
    return v;
  }

  T& front() {
    NOC_EXPECTS(count_ > 0);
    return slots_[static_cast<size_t>(head_)];
  }
  const T& front() const {
    NOC_EXPECTS(count_ > 0);
    return slots_[static_cast<size_t>(head_)];
  }

  /// i-th element from the front (0 = oldest).
  T& at(int i) {
    NOC_EXPECTS(i >= 0 && i < count_);
    return slots_[static_cast<size_t>(index(i))];
  }
  const T& at(int i) const {
    NOC_EXPECTS(i >= 0 && i < count_);
    return slots_[static_cast<size_t>(index(i))];
  }

 private:
  int index(int i) const { return (head_ + i) % N; }

  // Counters before the storage: an empty()/size() check reads the
  // object's first bytes, not a line past the slots.
  int head_ = 0;
  int count_ = 0;
  std::array<T, N> slots_{};
};

}  // namespace noc
