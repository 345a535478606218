#pragma once
// Series/parallel transistor-network leakage solver.
//
// A cell's pull-up and pull-down networks are series/parallel trees of
// devices. For a given input state, the leakage through the network between
// two rails is found by enforcing current continuity at the internal nodes.
// Every element's current is monotone in its terminal voltages, so a series
// chain of any length is one scalar root in ln I: march the chain from the
// low rail, inverting each element on its I-V curve, until the last element's
// current matches. Both that root and each inversion are bracketed Brent
// solves (math/root.h). This reproduces the transistor "stack effect" (a
// 2-stack leaks ~10x less than a single off device), which is the
// logic-structure dependence the paper's cell pre-characterization captures.

#include <span>
#include <vector>

#include "device/subthreshold.h"

namespace rgleak::device {

/// One transistor in a network. `gate_signal` indexes the resolved signal
/// vector of the evaluation context (cells resolve logical values to rail
/// voltages). `dvt_index` indexes the per-device random-Vt vector (-1: none).
struct NetworkDevice {
  DeviceType type = DeviceType::kNmos;
  int gate_signal = 0;
  double w_nm = 120.0;
  int dvt_index = -1;
};

/// Series/parallel tree. Value type; build with the static factories.
class Network {
 public:
  enum class Kind { kDevice, kSeries, kParallel };

  static Network device(NetworkDevice d);
  static Network series(std::vector<Network> children);
  static Network parallel(std::vector<Network> children);

  Kind kind() const { return kind_; }
  const NetworkDevice& dev() const;
  const std::vector<Network>& children() const { return children_; }

  /// Total number of devices in the tree.
  std::size_t device_count() const;
  /// Appends every device in the tree (pre-order) to `out`.
  void collect_devices(std::vector<const NetworkDevice*>& out) const;

 private:
  Network() = default;
  Kind kind_ = Kind::kDevice;
  NetworkDevice device_;
  std::vector<Network> children_;
};

/// Everything needed to evaluate device currents for one input state and one
/// process sample.
struct NetworkEvalContext {
  const TechnologyParams* tech = nullptr;
  std::span<const double> gate_voltage_v;  ///< resolved signal voltages
  double l_nm = 0.0;                       ///< sampled channel length (shared within cell)
  std::span<const double> dvt_v;           ///< per-device random Vt shifts (may be empty)
};

/// Current (nA) flowing through the network from the node at `v_hi_v` to the
/// node at `v_lo_v`. Requires v_hi_v >= v_lo_v. Series chains are solved to
/// ~1e-14 relative in the current.
double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v);

}  // namespace rgleak::device
