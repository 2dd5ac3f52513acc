#include "noc/traffic.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace noc {

const char* traffic_pattern_name(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::UniformRequest: return "uniform-request";
    case TrafficPattern::MixedPaper: return "mixed(50b/25u/25r)";
    case TrafficPattern::BroadcastOnly: return "broadcast-only";
    case TrafficPattern::Transpose: return "transpose";
    case TrafficPattern::BitComplement: return "bit-complement";
    case TrafficPattern::Tornado: return "tornado";
    case TrafficPattern::NearestNeighbor: return "nearest-neighbor";
  }
  return "?";
}

std::optional<TrafficPattern> parse_traffic_pattern(std::string_view name) {
  constexpr TrafficPattern kAll[] = {
      TrafficPattern::UniformRequest, TrafficPattern::MixedPaper,
      TrafficPattern::BroadcastOnly,  TrafficPattern::Transpose,
      TrafficPattern::BitComplement,  TrafficPattern::Tornado,
      TrafficPattern::NearestNeighbor,
  };
  for (TrafficPattern p : kAll)
    if (name == traffic_pattern_name(p)) return p;
  // Short command-line aliases.
  if (name == "uniform") return TrafficPattern::UniformRequest;
  if (name == "mixed") return TrafficPattern::MixedPaper;
  if (name == "broadcast") return TrafficPattern::BroadcastOnly;
  if (name == "bitcomp") return TrafficPattern::BitComplement;
  if (name == "neighbor") return TrafficPattern::NearestNeighbor;
  return std::nullopt;
}

OpenLoopSource::OpenLoopSource(const MeshGeometry& geom,
                               const TrafficConfig& cfg, NodeId node)
    : geom_(geom),
      cfg_(cfg),
      node_(node),
      rate_(cfg.offered_flits_per_node_cycle),
      // Identical seeds across NICs reproduce the chip's synchronized-PRBS
      // artifact; otherwise each NIC gets an independent stream.
      rng_(cfg.identical_prbs ? cfg.seed : node_rng_seed(cfg.seed, node)) {
  NOC_EXPECTS(cfg.offered_flits_per_node_cycle >= 0.0);
  // Transpose swaps x and y, so it needs a square mesh; the other patterns
  // run on any kx x ky.
  NOC_EXPECTS(cfg.pattern != TrafficPattern::Transpose ||
              geom.kx() == geom.ky());
}

double OpenLoopSource::avg_flits_per_packet() const {
  switch (cfg_.pattern) {
    case TrafficPattern::MixedPaper:
      return kMixedBroadcastFrac * kRequestPacketLen +
             kMixedUnicastRequestFrac * kRequestPacketLen +
             kMixedUnicastResponseFrac * kResponsePacketLen;
    default:
      return kRequestPacketLen;
  }
}

NodeId OpenLoopSource::pick_unicast_dest() {
  if (cfg_.identical_prbs) {
    // Keep every NIC's generator in lockstep: one draw per packet, shared
    // sequence. The chip's NICs map the PRBS destination field relative to
    // their own id, so a synchronized draw produces a permutation (every
    // node sends, every node receives exactly once, no ejection hotspot) --
    // but the injection *cycles* and packet *types* are identical
    // chip-wide, which is what contends away bypassing at low loads.
    const auto n = static_cast<NodeId>(geom_.num_nodes());
    // Draw an offset in [1, n) so every non-self destination has equal
    // weight and a synchronized draw is a true permutation.
    const auto draw = static_cast<NodeId>(
        rng_.next_below(static_cast<uint64_t>(n - 1)));
    return (node_ + 1 + draw) % n;
  }
  NodeId d;
  do {
    d = static_cast<NodeId>(rng_.next_below(
        static_cast<uint64_t>(geom_.num_nodes())));
  } while (d == node_);
  return d;
}

Cycle OpenLoopSource::next_fire_cycle(Cycle from) const {
  const double p_packet = std::min(1.0, rate_ / avg_flits_per_packet());
  if (p_packet <= 0.0) return kCycleNever;
  if (!cfg_.identical_prbs) return from;  // Bernoulli draws every cycle
  // Replay the per-cycle accumulation with the exact float operations the
  // generate() path performs, so the predicted fire cycle matches the
  // every-cycle path bit for bit. Capped so a denormal-small rate cannot
  // spin; waking early is always safe (the NIC just re-sleeps).
  double credit = inject_credit_;
  Cycle t = last_gen_cycle_;
  const Cycle cap = last_gen_cycle_ + (Cycle{1} << 20);
  do {
    ++t;
    credit += p_packet;
  } while (credit < 1.0 && t < cap);
  return std::max(from, t);
}

std::optional<Packet> OpenLoopSource::generate(Cycle now) {
  NOC_EXPECTS(now > last_gen_cycle_);
  const Cycle skipped = now - last_gen_cycle_ - 1;
  last_gen_cycle_ = now;
  // At most one packet decision per cycle: offered loads beyond the source
  // capacity simply pin the injection process at saturation. Cycles a gated
  // NIC slept through were governed by the rate in force back then
  // (set_rate stashes it), not by a rate changed this cycle boundary.
  const double p_now = std::min(1.0, rate_ / avg_flits_per_packet());
  const double p_slept =
      replay_rate_ < 0.0
          ? p_now
          : std::min(1.0, replay_rate_ / avg_flits_per_packet());
  replay_rate_ = -1.0;
  if (cfg_.identical_prbs) {
    // Fixed-interval deterministic injection, phase-aligned across all
    // NICs: the chip's identical free-running generators made every NIC
    // inject (and pick destinations) in unison, which is what contended
    // away bypassing even at low loads (paper Sec 4.1). Cycles a gated NIC
    // slept through are replayed one accumulator step at a time -- the
    // same float op sequence as the every-cycle path -- and cannot fire:
    // next_fire_cycle (computed at the slept rate) promised silence.
    for (Cycle s = 0; s < skipped; ++s) {
      inject_credit_ += p_slept;
      NOC_ASSERT(inject_credit_ < 1.0);
    }
    if (p_now <= 0.0) return std::nullopt;
    inject_credit_ += p_now;
    if (inject_credit_ < 1.0) return std::nullopt;
    inject_credit_ -= 1.0;
  } else if (p_now <= 0.0) {
    // Rate 0 consumes nothing (no draw): a gated NIC may sleep through it
    // and the ungated path stays stream-identical by taking the same
    // early exit.
    return std::nullopt;
  } else if (!rng_.bernoulli(p_now)) {
    return std::nullopt;
  }

  Packet pkt;
  pkt.src = node_;
  pkt.gen_cycle = now;
  pkt.id = make_packet_id(node_, next_local_id_);
  pkt.mc = MsgClass::Request;
  pkt.length = kRequestPacketLen;

  switch (cfg_.pattern) {
    case TrafficPattern::UniformRequest:
      pkt.dest_mask = MeshGeometry::node_mask(pick_unicast_dest());
      break;
    case TrafficPattern::BroadcastOnly:
      pkt.dest_mask = geom_.all_nodes_mask();
      break;
    case TrafficPattern::MixedPaper: {
      const double u = rng_.next_double();
      if (u < kMixedBroadcastFrac) {
        pkt.dest_mask = geom_.all_nodes_mask();
      } else if (u < kMixedBroadcastFrac + kMixedUnicastRequestFrac) {
        pkt.dest_mask = MeshGeometry::node_mask(pick_unicast_dest());
      } else {
        pkt.dest_mask = MeshGeometry::node_mask(pick_unicast_dest());
        pkt.mc = MsgClass::Response;
        pkt.length = kResponsePacketLen;
      }
      break;
    }
    case TrafficPattern::Transpose: {
      const Coord c = geom_.coord(node_);
      const NodeId d = geom_.id(c.y, c.x);
      if (d == node_) return std::nullopt;  // diagonal nodes stay silent
      pkt.dest_mask = MeshGeometry::node_mask(d);
      break;
    }
    case TrafficPattern::BitComplement: {
      const NodeId d = (geom_.num_nodes() - 1) - node_;
      if (d == node_) return std::nullopt;
      pkt.dest_mask = MeshGeometry::node_mask(d);
      break;
    }
    case TrafficPattern::Tornado: {
      const Coord c = geom_.coord(node_);
      const int k = geom_.kx();
      const int dx = (c.x + (k + 1) / 2 - 1) % k;
      if (dx == c.x) return std::nullopt;
      pkt.dest_mask = MeshGeometry::node_mask(geom_.id(dx, c.y));
      break;
    }
    case TrafficPattern::NearestNeighbor: {
      const Coord c = geom_.coord(node_);
      const int k = geom_.kx();  // >= 2 (MeshGeometry)
      // Reflect at the east edge: the mesh has no wraparound link, so the
      // old (c.x+1)%k mapping sent the edge column a silent (k-1)-hop
      // packet across the whole row. With reflection every node still
      // injects 1-hop traffic, so the offered per-node rate is unchanged
      // (unlike Transpose/BitComplement, whose diagonal/fixed-point nodes
      // stay silent).
      const int dx = c.x + 1 < k ? c.x + 1 : c.x - 1;
      pkt.dest_mask = MeshGeometry::node_mask(geom_.id(dx, c.y));
      break;
    }
  }
  NOC_ENSURES(pkt.dest_mask.any());
  return pkt;
}

}  // namespace noc
