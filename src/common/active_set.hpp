#pragma once
// Activity tracking primitives for the gated cycle core (docs/PERF.md).
//
// ActiveList is a dense integer membership set: components register by id
// when they become able to do work, and Network::step sweeps the list once
// per cycle, dropping entries whose keep-predicate fails. Storage is
// pre-sized at init (capacity == universe, duplicates excluded by the
// membership flags), so steady-state insert/sweep never touches the heap.
//
// WakeHook is a one-bit wake target: a component sets a bit in a
// Network-owned per-node mask (a DestMask, one bit per node -- the same
// multi-word bitset the datapath uses for destination sets) to schedule
// another component (or itself) for execution. Null hooks are no-ops, so
// ungated networks pay nothing.

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/dest_mask.hpp"

namespace noc {

class ActiveList {
 public:
  void init(int universe) {
    member_.assign(static_cast<size_t>(universe), 0);
    items_.clear();
    items_.reserve(static_cast<size_t>(universe));
  }

  int universe() const { return static_cast<int>(member_.size()); }
  int size() const { return static_cast<int>(items_.size()); }
  bool empty() const { return items_.empty(); }

  /// Idempotent; returns true when newly inserted.
  bool insert(int id) {
    NOC_EXPECTS(id >= 0 && id < universe());
    if (member_[static_cast<size_t>(id)]) return false;
    member_[static_cast<size_t>(id)] = 1;
    items_.push_back(id);
    return true;
  }

  /// Visit every current entry once; keep(id) == false removes it. Entries
  /// inserted during the sweep are not visited this pass (they joined for
  /// the next cycle). Visit order is insertion order and compaction is
  /// stable, but callers must not depend on it: all per-entry work this
  /// list carries is order-independent (see Network::span_compute).
  template <typename Keep>
  void sweep(Keep&& keep) {
    size_t w = 0;
    const size_t n = items_.size();  // exclude mid-sweep inserts
    for (size_t r = 0; r < n; ++r) {
      const int32_t id = items_[r];
      if (keep(id))
        items_[w++] = id;
      else
        member_[static_cast<size_t>(id)] = 0;
    }
    // Slide entries appended mid-sweep down over the holes.
    for (size_t r = n; r < items_.size(); ++r) items_[w++] = items_[r];
    items_.resize(w);
  }

 private:
  std::vector<int32_t> items_;
  std::vector<uint8_t> member_;
};

struct WakeHook {
  DestMask* mask = nullptr;
  int bit = 0;
  /// Optional port-granular wake target: a storage word of the receiving
  /// router's per-port wake mask (BitMask::word_ptr) plus the arriving
  /// port's bit. Kept as a raw word pointer so this header needs no
  /// dependency on the mask's width; only the owning router ever reads or
  /// clears the word, and every channel that writes it is owned by the same
  /// span, so parallel stepping stays race-free (docs/PERF.md Layer 5).
  uint64_t* port_word = nullptr;
  uint64_t port_bits = 0;

  void fire() const {
    if (mask != nullptr) mask->set(bit);
    if (port_word != nullptr) *port_word |= port_bits;
  }
};

}  // namespace noc
