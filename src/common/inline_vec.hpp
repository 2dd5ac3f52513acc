#pragma once
// InlineVec<T, N>: a fixed-capacity vector with inline storage.
//
// The router datapath builds small per-cycle collections (branch lists,
// grant lists, flit bursts) whose sizes are bounded by hardware structure --
// at most one branch per output port, at most kMaxPacketFlits flits per
// packet. std::vector heap-allocates for these; InlineVec keeps them in the
// owning object so Network::step performs no allocations in steady state
// (see docs/PERF.md).
//
// Elements must be default-constructible; clear() only resets the size (it
// does not destroy elements), which is fine for the trivially-destructible
// value types used on the hot path. Copies move only the live elements, so
// copying a mostly-empty list costs its size, not its capacity.

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace noc {

template <typename T, int N>
class InlineVec {
 public:
  InlineVec() = default;
  /// n value-initialized elements (mirrors std::vector<T> v(n)).
  explicit InlineVec(int n) { resize(n); }
  InlineVec(const InlineVec& o) : size_(o.size_) {
    std::copy(o.begin(), o.end(), items_.begin());
  }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      size_ = o.size_;
      std::copy(o.begin(), o.end(), items_.begin());
    }
    return *this;
  }

  static constexpr int capacity() { return N; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == N; }

  void clear() { size_ = 0; }
  void resize(int n) {
    NOC_EXPECTS(n >= 0 && n <= N);
    for (int i = size_; i < n; ++i) items_[static_cast<size_t>(i)] = T{};
    size_ = n;
  }

  void push_back(const T& v) {
    NOC_EXPECTS(size_ < N);
    items_[static_cast<size_t>(size_++)] = v;
  }

  void pop_back() {
    NOC_EXPECTS(size_ > 0);
    --size_;
  }

  /// Remove element i, shifting the later ones down (order is kept).
  void erase(int i) {
    NOC_EXPECTS(i >= 0 && i < size_);
    std::copy(begin() + i + 1, end(), begin() + i);
    --size_;
  }

  T& operator[](int i) {
    NOC_EXPECTS(i >= 0 && i < size_);
    return items_[static_cast<size_t>(i)];
  }
  const T& operator[](int i) const {
    NOC_EXPECTS(i >= 0 && i < size_);
    return items_[static_cast<size_t>(i)];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  // The size before the storage: a short list's size and its live elements
  // share the first cache line.
  int size_ = 0;
  std::array<T, N> items_{};
};

}  // namespace noc
