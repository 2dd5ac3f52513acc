#pragma once
// Technology / calibration parameter sets for the power models.
//
// The simulator counts events; a TechParams set converts them to milliwatts
// (pJ per event at 1 GHz == mW contribution). Two sets feed the paper's
// Fig 8 comparison (its ORION 2.0 column is the analytical model in
// power/orion.hpp):
//
//  - calibrated_tech45(): fitted against the chip's measured numbers
//    (Sec 4.1: 427.3 mW at 653 Gb/s broadcast; 76.7 mW leakage;
//    13.2 mW/router at near-zero load with 1.9 mW VC state, 2.0 mW buffers,
//    0.7 mW allocators, 0.2 mW lookaheads; low-swing datapath at 51.7% of
//    full-swing for the measured 48.3% datapath reduction). This set plays
//    the role of the silicon measurement.
//  - postlayout_tech45(): the same constants with the paper's reported
//    post-layout biases (slightly under-estimates buffers and arbitration,
//    over-estimates clocking and datapath; 6-13% total deviation).

namespace noc::power {

struct TechParams {
  const char* name = "";

  // Datapath, per event, pJ. A "hop" is one crossbar traversal driving the
  // attached inter-router link (the chip's tri-state RSD drives both as one
  // circuit, Fig 4). Ejection drives the shorter router->NIC wire;
  // injection drives only the NIC->router wire.
  double e_hop_fullswing_pj = 12.7;
  double e_hop_lowswing_pj = 6.57;   // 51.7% of full swing (Fig 6, 48.3%)
  double eject_factor = 0.7;         // ejection energy vs hop
  double inject_factor = 0.3;        // injection energy vs hop

  // Buffers, per 64b flit, pJ.
  double e_buffer_write_pj = 2.4;
  double e_buffer_read_pj = 1.6;

  // Control logic, per operation, pJ.
  double e_sa1_pj = 0.30;
  double e_sa2_pj = 0.45;
  double e_va_pj = 0.30;
  double e_lookahead_pj = 0.55;  // 15b lookahead generation + wire

  // Static / non-data-dependent, per router, mW at nominal voltage.
  double p_clock_per_router_mw = 4.2;     // clock tree + pipeline registers
  double p_vc_state_per_router_mw = 1.9;  // VC bookkeeping (Sec 4.1)
  double p_leak_per_router_mw = 4.79;     // 76.7 mW / 16 routers

  double e_hop_pj(bool lowswing) const {
    return lowswing ? e_hop_lowswing_pj : e_hop_fullswing_pj;
  }
};

TechParams calibrated_tech45();
TechParams postlayout_tech45();

}  // namespace noc::power
