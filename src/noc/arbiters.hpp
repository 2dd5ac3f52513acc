#pragma once
// Arbiters used by the separable switch allocator:
//  - mSA-I: per-input-port round-robin across the 6 VCs, "fair and
//    starvation-free" (paper Sec 3.1).
//  - mSA-II: per-output-port matrix arbiter across the 5 input ports
//    (paper Sec 3.1), least-recently-served priority.
//
// Both are pure bit-twiddling over inline state (a rotation pointer, a
// 32x32 priority bitmatrix) -- no heap, no per-decision loops beyond a
// population scan -- because they run several times per router per cycle.

#include <array>
#include <cstdint>

#include "noc/buffers.hpp"
#include "noc/routing.hpp"

namespace noc {

/// Rotating-priority (round-robin) arbiter over n requesters.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int n);

  /// Grant one of the requesters set in `requests` (bit i = requester i),
  /// starting the search after the previous winner. Returns the winner
  /// index, or -1 if no requests. Advances the pointer on a grant.
  int arbitrate(uint32_t requests);
  /// mSA-I request vector straight from the router's per-VC eligibility
  /// mask (kMaxTotalVcs <= 32, so word 0 is the whole vector).
  int arbitrate(const VcMask& requests) {
    return arbitrate(static_cast<uint32_t>(requests.word(0)));
  }

  /// Inspect without state change.
  int peek(uint32_t requests) const;

  int size() const { return n_; }

 private:
  uint32_t valid_mask() const {
    return n_ == 32 ? ~uint32_t{0} : (uint32_t{1} << n_) - 1;
  }

  int n_;
  int next_ = 0;
};

/// Matrix arbiter over n requesters: row i's bit j set means i beats j.
/// The winner is demoted below everyone it beat (least-recently-served),
/// which is starvation-free for persistent requesters.
class MatrixArbiter {
 public:
  explicit MatrixArbiter(int n);

  /// Grant one requester from the bitmask, or -1. Updates the matrix.
  int arbitrate(uint32_t requests);
  /// mSA-II input-port request vector from a per-port mask.
  int arbitrate(const PortMask& requests) {
    return arbitrate(static_cast<uint32_t>(requests.word(0)));
  }

  int peek(uint32_t requests) const;

  int size() const { return n_; }

 private:
  uint32_t valid_mask() const {
    return n_ == 32 ? ~uint32_t{0} : (uint32_t{1} << n_) - 1;
  }

  int n_;
  std::array<uint32_t, 32> beats_{};  // beats_[i] bit j: i beats j
};

}  // namespace noc
