#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.hpp"
#include "sim/step_team.hpp"

namespace noc {

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(int threads, int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  // The caller drains too, so only workers-1 extra threads are needed; they
  // are leased from the shared budget and the loop degrades gracefully to
  // serial when none are available (nested parallelism, exhausted cap).
  const int workers = std::min(threads, n);
  const int extra =
      workers <= 1 ? 0 : thread_budget::acquire(workers - 1);
  if (extra == 0) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto drain = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    // Every worker drains, the caller as worker 0; run() returns once all
    // have found the cursor exhausted.
    StepTeam team(extra + 1);
    team.run([](void* ctx, int) { (*static_cast<decltype(drain)*>(ctx))(); },
             &drain);
  }
  thread_budget::release(extra);
  if (first_error) std::rethrow_exception(first_error);
}

namespace thread_budget {
namespace {

// used_ starts at 1: the root thread is always running. Function-local
// statics avoid init-order races with any static-constructed user.
std::atomic<int>& total_atomic() {
  static std::atomic<int> v{ThreadPool::hardware_threads()};
  return v;
}
std::atomic<int>& used_atomic() {
  static std::atomic<int> v{1};
  return v;
}
std::atomic<int>& peak_atomic() {
  static std::atomic<int> v{1};
  return v;
}

void raise_peak(int seen) {
  auto& peak = peak_atomic();
  int cur = peak.load(std::memory_order_relaxed);
  while (cur < seen &&
         !peak.compare_exchange_weak(cur, seen, std::memory_order_relaxed)) {
  }
}

}  // namespace

void set_total(int total) {
  total_atomic().store(total < 1 ? 1 : total, std::memory_order_relaxed);
  peak_atomic().store(used_atomic().load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

int total() { return total_atomic().load(std::memory_order_relaxed); }
int in_use() { return used_atomic().load(std::memory_order_relaxed); }
int peak_in_use() { return peak_atomic().load(std::memory_order_relaxed); }

int acquire(int want) {
  if (want <= 0) return 0;
  auto& used = used_atomic();
  int cur = used.load(std::memory_order_relaxed);
  int grant;
  do {
    grant = std::min(want, total() - cur);
    if (grant <= 0) return 0;
  } while (!used.compare_exchange_weak(cur, cur + grant,
                                       std::memory_order_relaxed));
  raise_peak(cur + grant);
  return grant;
}

void release(int granted) {
  if (granted <= 0) return;
  const int prev =
      used_atomic().fetch_sub(granted, std::memory_order_relaxed);
  NOC_EXPECTS(prev - granted >= 1);
}

}  // namespace thread_budget

}  // namespace noc
