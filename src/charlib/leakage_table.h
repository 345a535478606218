#pragma once
// Tabulated leakage-vs-channel-length curve for one (cell, input state).
//
// Cell leakage with fully correlated within-cell L (the paper's MC assumption)
// and no random Vt is a deterministic scalar function of L. The
// characterization and full-chip Monte-Carlo engines therefore evaluate the
// transistor-network solver on a fixed L grid once and interpolate ln(I)
// linearly afterwards — turning microsecond network solves into nanosecond
// lookups without changing the statistics.

#include <cstdint>
#include <vector>

#include "cells/cell.h"
#include "device/subthreshold.h"

namespace rgleak::charlib {

class LeakageTable {
 public:
  /// Tabulates cell leakage for `state` on `points` equally spaced lengths in
  /// [l_min_nm, l_max_nm]. Requires points >= 2 and l_min < l_max.
  LeakageTable(const cells::Cell& cell, std::uint32_t state,
               const device::TechnologyParams& tech, double l_min_nm, double l_max_nm,
               std::size_t points = 129);

  /// Leakage (nA) at channel length l_nm; linear interpolation of ln(I),
  /// linear extrapolation of ln(I) beyond the table ends.
  double eval_na(double l_nm) const;

  /// Batched lookup: out_na[i] = leakage at l_nm[i], for i in [0, n). The
  /// contiguous ln(I) gather feeds one math::vexp pass, so the whole batch
  /// auto-vectorizes and performs zero allocations (perfbench's table-eval
  /// probe times it). In-place (out_na == l_nm) is allowed.
  /// Agrees with eval_na to a few ULP (the scalar path uses std::exp and a
  /// division where this path uses vexp and a precomputed reciprocal); see
  /// tests/charlib/test_leakage_table.cpp for the asserted bound.
  void eval_many_na(const double* l_nm, double* out_na, std::size_t n) const;

  /// ln of the tabulated leakage range (diagnostics and vexp range checks).
  double log_i_min() const;
  double log_i_max() const;

  double l_min_nm() const { return l_min_; }
  double l_max_nm() const { return l_max_; }
  std::size_t size() const { return log_i_.size(); }

 private:
  double l_min_, l_max_, step_, inv_step_;
  std::vector<double> log_i_;
};

}  // namespace rgleak::charlib
