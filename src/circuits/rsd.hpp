#pragma once
// Tri-state reduced-swing driver (RSD) model (paper Sec 3.4, Fig 4).
//
// The chip's datapath drives crossbar vertical wires and links with 4-PMOS
// stacked tri-state drivers from a second supply LVDD, producing a 300mV
// differential swing; sense amplifiers recover full swing at the receiver.
// This model captures:
//  - energy per bit vs. swing and wire length (Fig 7: up to 3.2x less than
//    an equivalent full-swing repeater at 300mV on 1mm),
//  - the maximum single-cycle ST+LT data rate vs. link length (measured
//    5.4 GHz at 1mm, 2.6 GHz at 2mm),
//  - the repeated vs. repeaterless trade-off used in Fig 12.

#include "circuits/wire.hpp"

namespace noc::ckt {

struct RsdParams {
  WireParams wire;                 // differential shielded link wires
  double swing_v = 0.30;           // differential swing (Monte-Carlo chosen)
  double lvdd_headroom_v = 0.25;   // LVDD tracks swing + headroom
  double r_drive_ohm = 258.0;      // 4-PMOS stack on-resistance
  double c_fixed_ff = 18.0;        // driver diffusion + sense-amp input
  double e_sense_amp_fj = 11.0;    // per evaluation
  double e_clocking_fj = 6.0;      // SA strobe + enable alignment delay cell
  /// Datapath overhead before the wire: crossbar vertical-wire segment and
  /// SA resolve time. Together with r_drive this fits the chip's measured
  /// single-cycle ST+LT points: 5.4 GHz at 1mm and 2.6 GHz at 2mm.
  double t_fixed_ps = 68.6;
  double activity = 0.5;           // PRBS data
};

struct FullSwingRepeaterParams {
  WireParams wire{.r_ohm_per_mm = 500.0, .c_ff_per_mm = 210.0,
                  .differential = false};
  double vdd = 1.1;
  double repeater_cap_overhead = 1.35;  // repeater gate/diffusion loading
  double activity = 0.5;
};

class TriStateRsd {
 public:
  explicit TriStateRsd(const RsdParams& p = {}) : p_(p) {}

  /// Energy per transmitted bit over `mm` of link (fJ). Swing-linear
  /// dynamic term (C * Vswing * LVDD) plus sense-amp and strobe energy.
  double energy_per_bit_fj(double mm) const;

  /// Same, at an explicit swing (for the Fig 10 sweep).
  double energy_per_bit_fj(double mm, double swing_v) const;

  /// Worst-case ST+LT delay through crossbar + `mm` link (ps).
  double st_lt_delay_ps(double mm) const;

  /// Maximum clock frequency for single-cycle ST+LT (GHz).
  double max_data_rate_ghz(double mm) const;

  const RsdParams& params() const { return p_; }

 private:
  RsdParams p_;
};

class FullSwingRepeatedLink {
 public:
  explicit FullSwingRepeatedLink(const FullSwingRepeaterParams& p = {})
      : p_(p) {}

  double energy_per_bit_fj(double mm) const;

  const FullSwingRepeaterParams& params() const { return p_; }

 private:
  FullSwingRepeaterParams p_;
};

/// Energy ratio full-swing / low-swing at `mm` (the paper's headline 3.2x at
/// 1mm, 300mV).
double fullswing_vs_lowswing_ratio(double mm, double swing_v = 0.30);

}  // namespace noc::ckt
