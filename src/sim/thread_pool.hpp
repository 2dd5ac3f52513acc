#pragma once
// Fanning independent simulations across cores (the ExperimentRunner's and
// the campaign runner's engine), and the process-wide thread budget every
// parallel layer leases its workers from.
//
// parallel_for self-schedules indices through an atomic cursor (good load
// balance for sweep points whose runtimes differ) on a StepTeam whose worker
// 0 is the caller, falls back to a plain loop for <=1 thread or item, and
// rethrows the first exception any invocation threw. It makes no ordering
// promises between indices, so callers that need deterministic output write
// results into caller-owned slots keyed by index.

#include <functional>

namespace noc {

class ThreadPool {
 public:
  /// Number of hardware threads, at least 1.
  static int hardware_threads();
};

/// Run fn(0), ..., fn(n-1) across up to `threads` workers. Serial (and
/// team-free) when threads <= 1 or n <= 1. Blocks until every index has
/// run; rethrows the first exception thrown by any invocation.
///
/// Worker threads beyond the caller are leased from thread_budget (below),
/// so point-level sweeps and intra-network stepping compose without
/// oversubscribing: when the budget is exhausted the loop runs serially on
/// the caller. The caller always participates in draining, so a lease of E
/// extra threads executes on E + 1 threads total.
void parallel_for(int threads, int n, const std::function<void(int)>& fn);

/// Process-wide budget of concurrently-running simulation threads, shared
/// by every layer that spawns workers (ExperimentRunner point fan-out via
/// parallel_for, Network's intra-step span team). The root thread counts as
/// one permanently-held unit, so `total` is the cap on simultaneously
/// *running* threads, not on spawned helpers.
///
/// Layers request EXTRA threads with acquire(want) and get back however
/// many fit under the cap (possibly 0 -> run serial); they must release()
/// the same grant when done. Grants are leases, not reservations: a Network
/// holds its lease for its whole lifetime, a parallel_for only for the
/// loop. Never-exceeds is the invariant tests assert via peak_in_use().
namespace thread_budget {

/// Set the cap (min 1; the root thread itself). Also resets peak_in_use()
/// to the current in_use() so tests can scope their assertion.
void set_total(int total);
int total();

/// Threads currently leased, including the root thread's implicit unit.
int in_use();

/// High-water mark of in_use() since the last set_total().
int peak_in_use();

/// Lease up to `want` extra threads; returns the granted count in
/// [0, want]. Thread-safe.
int acquire(int want);
void release(int granted);

}  // namespace thread_budget

}  // namespace noc
