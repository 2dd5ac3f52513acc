#pragma once
// Column-span partition of a kx x ky mesh for intra-network parallel
// stepping (docs/PERF.md Layer 4).
//
// A span is a contiguous range of mesh columns; every router, NIC and
// intra-span channel belongs to exactly one span, and each span is stepped
// by exactly one worker per cycle. Because node ids are row-major
// (id = y * kx + x), a span's node set is id-strided, not contiguous --
// ownership is a function of the COLUMN, never the raw id.
//
// Why columns are the right cut: every within-cycle wake edge in the
// simulator is intra-node (the latency-0 NIC->router lookahead), and every
// cross-node interaction travels a latency-1 channel, whose slot is stamped
// with the next cycle and reads empty until then. North/South channels stay
// inside a column, so the only channels whose endpoints can land in
// different spans are the East/West pairs crossing a span boundary -- those
// become the deferred (double-buffered) synchronization edges of the
// two-phase barrier schedule in Network::step. crosses() is the exact
// classification the Network uses to mark them.
//
// Fault schedules commute with this decomposition (docs/FAULTS.md): the
// Network applies every FaultPlan event -- and the resulting escape-tree
// recompute plus router notifications -- on the MAIN thread at the top of
// step(), before any span worker runs. Workers then read the FaultState as
// immutable shared state for the rest of the cycle, so a faulted parallel
// step sees exactly the topology a faulted serial step sees.

#include <utility>
#include <vector>

#include "noc/geometry.hpp"

namespace noc {

class SpanPartition {
 public:
  /// Empty partition (serial network: no spans).
  SpanPartition() = default;

  /// Split `geom` into `spans` contiguous column ranges, balanced to within
  /// one column (uneven kx / spans leaves the earlier spans one column
  /// wider). Requires 1 <= spans <= geom.kx() -- clamp requests through
  /// clamp_spans() first.
  SpanPartition(const MeshGeometry& geom, int spans);

  /// Largest useful span count for a request: one worker per column at
  /// most, never less than one.
  static int clamp_spans(const MeshGeometry& geom, int requested);

  int num_spans() const { return static_cast<int>(begin_col_.size()) - 1; }
  int kx() const { return kx_; }
  int ky() const { return ky_; }

  /// Column range [first, second) owned by span `s`.
  std::pair<int, int> columns_of(int s) const {
    NOC_EXPECTS(s >= 0 && s < num_spans());
    return {begin_col_[static_cast<size_t>(s)],
            begin_col_[static_cast<size_t>(s) + 1]};
  }

  int span_of_column(int x) const {
    NOC_EXPECTS(x >= 0 && x < kx_);
    return col_span_[static_cast<size_t>(x)];
  }

  /// Owner span of a node (row-major ids: column = id mod kx).
  int span_of_node(NodeId node) const { return span_of_column(node % kx_); }

  /// Node ids owned by span `s`, ascending (construction-time helper; the
  /// ascending order is what keeps per-span passes serial-equivalent).
  std::vector<NodeId> nodes_of(int s) const;

  /// True when a channel between adjacent routers `a` and `b` is a
  /// cross-span synchronization edge. Only East/West neighbours can cross.
  bool crosses(NodeId a, NodeId b) const {
    return span_of_node(a) != span_of_node(b);
  }

 private:
  int kx_ = 0;
  int ky_ = 0;
  std::vector<int> col_span_;   // column -> span
  std::vector<int> begin_col_;  // span -> first column; size num_spans + 1
};

}  // namespace noc
