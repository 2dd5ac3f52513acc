#pragma once
// BitMask<N>: fixed-width multi-word bitset, the simulator's one bitset
// type. DestMask (below) is the 256-bit instance that holds a multicast's
// destination set and the step loop's per-node awake masks: 4 x 64-bit
// words cover k <= 16 (256 nodes), large enough to study how far past the
// prototype the paper's theoretical-limit analysis holds (docs/SCALING.md).
// The router datapath models its per-port / per-VC candidate sets with the
// same template (docs/PERF.md Layer 5).
//
// Design constraints (in priority order):
//  - Zero heap: plain array storage, trivially copyable, so Flit/Packet/
//    Branch copies stay memcpy and the steady-state no-allocation invariant
//    (docs/PERF.md) is untouched.
//  - Word-0 fast path: masks narrower than 64 bits compile to single-word
//    ops (kWords == 1 collapses every loop below), and wider masks
//    short-circuit on word 0 first -- on k <= 8 meshes a DestMask only
//    ever populates word 0.
//  - No silent truncation: the uint64_t constructor is explicit, so the
//    pre-multiword idioms that would quietly produce a word-0-only mask
//    (`dest_mask = 1u << n`, comparisons against integer literals) are
//    build errors. Single bits come from bit(), all-ones masks from
//    first_n; a literal single-word mask is spelled DestMask{0x1f}. No
//    operation sets a bit at or above kBits, so count()/any()/== never see
//    phantom tail bits.
//
// The noc layer adds three aliases (noc/routing.hpp, noc/buffers.hpp):
// PortMask over the 5 router ports, VcMask over the VC ids of one port, and
// VcSetMask over ports x VCs. Word-boundary behavior is pinned by
// tests/test_bit_mask.cpp, including the randomized incremental-vs-recompute
// cross-checks; tests/test_routing.cpp and tests/test_multiflit_multicast.cpp
// pin destination sets that straddle the 64/128/192-bit seams.

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace noc {

template <int NBits>
class BitMask {
  static_assert(NBits >= 1, "empty mask");

 public:
  static constexpr int kBits = NBits;
  static constexpr int kWords = (NBits + 63) / 64;

  constexpr BitMask() = default;
  /// Explicit on purpose: a bare integer is only ever a word-0 mask, and
  /// letting `mask = 1 << n` convert silently would reintroduce the
  /// truncation bugs the multi-word masks exist to make unrepresentable
  /// (docs/SCALING.md).
  constexpr explicit BitMask(uint64_t low) : w_{} {
    if constexpr (kBits < 64) NOC_EXPECTS((low >> kBits) == 0);
    w_[0] = low;
  }

  /// Mask with only bit `n` set.
  static constexpr BitMask bit(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    BitMask m;
    m.w_[word_of(n)] = bit_of(n);
    return m;
  }

  /// Mask with the lowest `n` bits set (the all-nodes mask of an n-node
  /// mesh).
  static constexpr BitMask first_n(int n) {
    NOC_EXPECTS(n >= 0 && n <= kBits);
    BitMask m;
    for (int w = 0; w < kWords; ++w) {
      const int low = w * 64;
      if (n >= low + 64)
        m.w_[w] = ~uint64_t{0};
      else if (n > low)
        m.w_[w] = (uint64_t{1} << (n - low)) - 1;
    }
    return m;
  }

  constexpr bool test(int n) const {
    NOC_EXPECTS(n >= 0 && n < kBits);
    return (w_[word_of(n)] & bit_of(n)) != 0;
  }
  constexpr void set(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    w_[word_of(n)] |= bit_of(n);
  }
  constexpr void clear(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    w_[word_of(n)] &= ~bit_of(n);
  }

  constexpr bool any() const {
    uint64_t acc = w_[0];
    if (acc != 0) return true;  // word-0 fast path
    for (int w = 1; w < kWords; ++w) acc |= w_[w];
    return acc != 0;
  }
  constexpr bool none() const { return !any(); }

  constexpr int count() const {
    int c = 0;
    for (int w = 0; w < kWords; ++w) c += std::popcount(w_[w]);
    return c;
  }

  /// Index of the lowest set bit; kBits when empty.
  constexpr int lowest() const {
    for (int w = 0; w < kWords; ++w)
      if (w_[w] != 0) return w * 64 + std::countr_zero(w_[w]);
    return kBits;
  }

  /// Visit every set bit in ascending index order: fn(int index).
  template <typename Fn>
  constexpr void for_each(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w)
      for (uint64_t rest = w_[w]; rest != 0; rest &= rest - 1)
        fn(w * 64 + std::countr_zero(rest));
  }

  /// Up to 32 consecutive bits starting at `pos`, as a plain word (bit i of
  /// the result = mask bit pos+i). Handles slices that straddle a word
  /// boundary; the router uses it to pull one port's VC set out of a
  /// VcSetMask in O(1).
  constexpr uint32_t extract(int pos, int width) const {
    NOC_EXPECTS(width >= 1 && width <= 32);
    NOC_EXPECTS(pos >= 0 && pos + width <= kBits);
    const int w = word_of(pos);
    const int off = pos & 63;
    uint64_t slice = w_[w] >> off;
    if (off != 0 && off + width > 64) slice |= w_[w + 1] << (64 - off);
    const uint32_t keep =
        width == 32 ? ~uint32_t{0} : (uint32_t{1} << width) - 1;
    return static_cast<uint32_t>(slice) & keep;
  }

  constexpr uint64_t word(int i) const {
    NOC_EXPECTS(i >= 0 && i < kWords);
    return w_[i];
  }

  /// this & ~other without materializing the complement.
  constexpr BitMask andnot(const BitMask& other) const {
    BitMask r;
    for (int w = 0; w < kWords; ++w) r.w_[w] = w_[w] & ~other.w_[w];
    return r;
  }

  constexpr BitMask& operator&=(const BitMask& o) {
    for (int w = 0; w < kWords; ++w) w_[w] &= o.w_[w];
    return *this;
  }
  constexpr BitMask& operator|=(const BitMask& o) {
    for (int w = 0; w < kWords; ++w) w_[w] |= o.w_[w];
    return *this;
  }

  friend constexpr BitMask operator&(BitMask a, const BitMask& b) {
    return a &= b;
  }
  friend constexpr BitMask operator|(BitMask a, const BitMask& b) {
    return a |= b;
  }

  friend constexpr bool operator==(const BitMask&, const BitMask&) = default;

 private:
  static constexpr int word_of(int n) { return n >> 6; }
  static constexpr uint64_t bit_of(int n) { return uint64_t{1} << (n & 63); }

  uint64_t w_[kWords] = {};
};

/// Destination set of a multicast and per-node wake mask: one bit per mesh
/// node, so the mesh holds at most DestMask::kBits = 256 nodes (k <= 16).
using DestMask = BitMask<256>;
static_assert(sizeof(DestMask) == 32, "DestMask is four 64-bit words");

}  // namespace noc
