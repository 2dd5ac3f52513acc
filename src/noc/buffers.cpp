#include "noc/buffers.hpp"

#include <climits>

namespace noc {

void InputVc::open_packet(const Flit& head, const BranchList& branches) {
  NOC_EXPECTS(!busy_);
  NOC_EXPECTS(is_head(head.type));
  NOC_EXPECTS(!branches.empty());
  busy_ = true;
  branches_ = branches;
  front_seq_ = 0;
  packet_len = head.packet_len;
  rc_ = head.rc;
  logical_ = head.logical_id;
}

void InputVc::close_packet() {
  NOC_EXPECTS(busy_);
  NOC_EXPECTS(fifo_.empty());
  busy_ = false;
  branches_.clear();
  packet_len = 0;
  front_seq_ = 0;
  rc_ = RouteClass::XY;
  logical_ = 0;
}

void InputVc::push(const Flit& f) {
  NOC_EXPECTS(busy_);
  NOC_EXPECTS(fifo_.size() < depth_);
  if (fifo_.empty()) front_seq_ = f.seq;
  NOC_ASSERT(f.seq == front_seq_ + fifo_.size());
  fifo_.push_back(f);
}

const Flit& InputVc::flit_at_seq(int seq) const {
  NOC_EXPECTS(has_seq(seq));
  return fifo_.at(seq - front_seq_);
}

bool InputVc::has_seq(int seq) const {
  return seq >= front_seq_ && seq < front_seq_ + fifo_.size();
}

Flit InputVc::pop_front() {
  NOC_EXPECTS(!fifo_.empty());
  Flit f = fifo_.pop_front();
  ++front_seq_;
  return f;
}

int InputVc::current_seq() const {
  int s = INT_MAX;
  for (const auto& b : branches_)
    if (!b.tail_sent && b.next_seq < s) s = b.next_seq;
  return s;
}

bool InputVc::all_branches_done() const {
  for (const auto& b : branches_)
    if (!b.tail_sent) return false;
  return true;
}

void DownstreamState::configure(const VcConfig& cfg) {
  NOC_EXPECTS(cfg.total_vcs() <= kMaxTotalVcs);
  for (int m = 0; m < kNumMsgClasses; ++m)
    NOC_EXPECTS(cfg.depth_per_mc[m] <= kMaxVcDepth);
  cfg_ = cfg;
  credits_.fill(0);
  for (auto& order : free_order_) order.clear();
  free_ = VcMask{};
  credit_ = VcMask{};
  for (int m = 0; m < kNumMsgClasses; ++m) {
    class_member_[m] = VcMask{};
    for (int l = 0; l < kNumVcLanes; ++l) {
      member_[m][l] = VcMask{};
      lane_credit_sum_[m][l] = 0;
    }
  }
  // Ascending VC id: the release order starts out as plain id order,
  // exactly the pre-lane single queue.
  for (int vc = 0; vc < cfg.total_vcs(); ++vc) {
    const int m = static_cast<int>(cfg.mc_of_vc(vc));
    const int l = static_cast<int>(cfg.lane_of_vc(vc));
    mc_of_[vc] = static_cast<int8_t>(m);
    lane_of_[vc] = static_cast<int8_t>(l);
    credits_[static_cast<size_t>(vc)] = cfg.depth_of_vc(vc);
    free_order_[m].push_back(static_cast<int8_t>(vc));
    free_.set(vc);
    credit_.set(vc);
    member_[m][l].set(vc);
    class_member_[m].set(vc);
    lane_credit_sum_[m][l] += cfg.depth_of_vc(vc);
  }
}

int DownstreamState::allocate_vc(MsgClass mc, VcLane lane) {
  auto& order = free_order_[static_cast<int>(mc)];
  for (int i = 0; i < order.size(); ++i) {
    const int vc = order[i];
    if (lane != VcLane::Any && lane_of_[vc] != static_cast<int>(lane))
      continue;
    order.erase(i);
    free_.clear(vc);
    return vc;
  }
  return -1;
}

void DownstreamState::release_vc(int vc) {
  NOC_EXPECTS(vc >= 0 && vc < cfg_.total_vcs());
  NOC_ASSERT(!free_.test(vc));
  free_order_[mc_of_[vc]].push_back(static_cast<int8_t>(vc));
  free_.set(vc);
}

void DownstreamState::consume_credit(int vc) {
  NOC_EXPECTS(credits_[static_cast<size_t>(vc)] > 0);
  if (--credits_[static_cast<size_t>(vc)] == 0) credit_.clear(vc);
  --lane_credit_sum_[mc_of_[vc]][lane_of_[vc]];
}

void DownstreamState::return_credit(int vc) {
  ++credits_[static_cast<size_t>(vc)];
  credit_.set(vc);
  ++lane_credit_sum_[mc_of_[vc]][lane_of_[vc]];
  NOC_ENSURES(credits_[static_cast<size_t>(vc)] <= cfg_.depth_of_vc(vc));
}

}  // namespace noc
