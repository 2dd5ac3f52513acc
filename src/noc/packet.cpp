#include "noc/packet.hpp"

#include "common/assert.hpp"

namespace noc {

void segment_packet_into(const Packet& p, FlitList& out) {
  NOC_EXPECTS(p.length >= 1 && p.length <= kMaxPacketFlits);
  NOC_EXPECTS(p.dest_mask.any());
  out.clear();
  for (int i = 0; i < p.length; ++i) {
    Flit f;
    f.logical_id = p.effective_logical_id();
    f.src = static_cast<int16_t>(p.src);
    f.branch_mask = p.dest_mask;
    f.mc = p.mc;
    f.rc = p.rc;
    f.tag = p.tag;
    f.seq = static_cast<int8_t>(i);
    f.packet_len = static_cast<int8_t>(p.length);
    f.gen_cycle = p.gen_cycle;
    if (p.length == 1) {
      f.type = FlitType::HeadTail;
    } else if (i == 0) {
      f.type = FlitType::Head;
    } else if (i == p.length - 1) {
      f.type = FlitType::Tail;
    } else {
      f.type = FlitType::Body;
    }
    out.push_back(f);
  }
}

std::vector<Flit> segment_packet(const Packet& p) {
  FlitList flits;
  segment_packet_into(p, flits);
  return std::vector<Flit>(flits.begin(), flits.end());
}

}  // namespace noc
