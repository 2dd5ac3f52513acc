#include "power/tech_params.hpp"

namespace noc::power {

TechParams calibrated_tech45() {
  TechParams t;
  t.name = "measured (calibrated to chip)";
  return t;  // defaults are the calibrated values
}

TechParams postlayout_tech45() {
  // Paper Sec 4.4: post-layout slightly under-estimates buffers and
  // arbitration logic, over-estimates clocking and datapath; total within
  // 6-13% of measurements.
  TechParams t = calibrated_tech45();
  t.name = "post-layout simulation";
  t.e_buffer_write_pj *= 0.90;
  t.e_buffer_read_pj *= 0.90;
  t.e_sa1_pj *= 0.88;
  t.e_sa2_pj *= 0.88;
  t.e_va_pj *= 0.88;
  t.e_lookahead_pj *= 0.92;
  t.e_hop_fullswing_pj *= 1.12;
  t.e_hop_lowswing_pj *= 1.12;
  t.p_clock_per_router_mw *= 1.15;
  t.p_vc_state_per_router_mw *= 0.95;
  t.p_leak_per_router_mw *= 0.90;
  return t;
}

}  // namespace noc::power
