#pragma once
// Persistent worker team: the one thread-team implementation, behind both
// intra-network parallel stepping and parallel_for (sim/thread_pool.hpp).
//
// A Network that steps with `step_threads > 1` drives every cycle through
// the same fixed set of threads; spawning per step (or per phase) would
// dwarf the work of a cycle. StepTeam keeps N-1 helper threads parked on an
// epoch counter and lets the caller act as worker 0, so `run()` is one
// atomic bump plus (at most) one futex wake on each side. parallel_for
// builds a team per loop and calls run() once, every worker draining the
// loop's shared index cursor.
//
// The callable is a raw function pointer + context, not std::function:
// run() sits inside the steady-state step loop and must not allocate
// (docs/PERF.md zero-alloc invariant), and std::function's small-buffer
// limit is an implementation detail we refuse to bet on.
//
// run() is a full barrier: it returns only after every worker has finished
// the epoch. Two consecutive run() calls therefore give the two-phase
// schedule Network::step needs (compute span-local, then commit boundary
// state) with no other synchronization.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace noc {

class StepTeam {
 public:
  using WorkerFn = void (*)(void* ctx, int worker);

  /// A team of `workers` total workers (including the calling thread).
  /// `workers <= 1` spawns nothing and run() degenerates to a direct call.
  explicit StepTeam(int workers);
  ~StepTeam();

  StepTeam(const StepTeam&) = delete;
  StepTeam& operator=(const StepTeam&) = delete;

  int workers() const { return workers_; }

  /// Execute fn(ctx, w) for every w in [0, workers); the caller runs w == 0.
  /// Returns after all workers completed (barrier). Not reentrant.
  void run(WorkerFn fn, void* ctx);

 private:
  void worker_loop(int worker);

  int workers_ = 1;
  // epoch_ ticks once per run(); helpers chase it. done_ counts cumulative
  // helper completions, so epoch e is finished when done_ == e*(workers-1).
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  // Futex wakes are syscalls; both sides skip notify unless the other side
  // announced it may actually be blocked. The flag checks race with the
  // block, but std::atomic::wait re-validates the value after registering
  // as a waiter, so a stale "no sleeper" read can only happen when the
  // would-be sleeper is guaranteed to re-read the fresh counter.
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_waiting_{false};
  WorkerFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace noc
