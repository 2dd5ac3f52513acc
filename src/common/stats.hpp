#pragma once
// Integer sample statistics. Latencies in this simulator are whole cycles,
// so their count, sum and maximum accumulate exactly: the result does not
// depend on the order the samples arrive in.

#include <cstdint>

namespace noc {

/// Exact {count, sum, max} over integer samples (cycle latencies).
class IntStat {
 public:
  void add(int64_t x) {
    if (count_ == 0 || x > max_) max_ = x;
    ++count_;
    sum_ += x;
  }
  void reset() { *this = IntStat{}; }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t max() const { return max_; }  // 0 when empty
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t max_ = 0;
};

}  // namespace noc
