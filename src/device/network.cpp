#include "device/network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/root.h"
#include "util/require.h"

namespace rgleak::device {

Network Network::device(NetworkDevice d) {
  Network n;
  n.kind_ = Kind::kDevice;
  n.device_ = d;
  return n;
}

Network Network::series(std::vector<Network> children) {
  RGLEAK_REQUIRE(!children.empty(), "series network needs children");
  if (children.size() == 1) return std::move(children.front());
  Network n;
  n.kind_ = Kind::kSeries;
  // Flatten nested series so the chain solver sees all internal nodes at once.
  for (auto& c : children) {
    if (c.kind_ == Kind::kSeries) {
      for (auto& gc : c.children_) n.children_.push_back(std::move(gc));
    } else {
      n.children_.push_back(std::move(c));
    }
  }
  return n;
}

Network Network::parallel(std::vector<Network> children) {
  RGLEAK_REQUIRE(!children.empty(), "parallel network needs children");
  if (children.size() == 1) return std::move(children.front());
  Network n;
  n.kind_ = Kind::kParallel;
  for (auto& c : children) {
    if (c.kind_ == Kind::kParallel) {
      for (auto& gc : c.children_) n.children_.push_back(std::move(gc));
    } else {
      n.children_.push_back(std::move(c));
    }
  }
  return n;
}

const NetworkDevice& Network::dev() const {
  RGLEAK_REQUIRE(kind_ == Kind::kDevice, "dev() on a composite network");
  return device_;
}

std::size_t Network::device_count() const {
  if (kind_ == Kind::kDevice) return 1;
  std::size_t n = 0;
  for (const auto& c : children_) n += c.device_count();
  return n;
}

void Network::collect_devices(std::vector<const NetworkDevice*>& out) const {
  if (kind_ == Kind::kDevice) {
    out.push_back(&device_);
    return;
  }
  for (const auto& c : children_) c.collect_devices(out);
}

namespace {

// Solver tolerances: node voltages to this fraction of the chain's swing,
// chain currents to this absolute error in ln I (relative error in I).
constexpr double kVoltTolerance = 1e-15;
constexpr double kLogTolerance = 1e-14;

double device_current(const NetworkDevice& d, const NetworkEvalContext& ctx, double v_lo,
                      double v_hi) {
  RGLEAK_REQUIRE(ctx.tech != nullptr, "evaluation context missing technology");
  RGLEAK_REQUIRE(d.gate_signal >= 0 &&
                     static_cast<std::size_t>(d.gate_signal) < ctx.gate_voltage_v.size(),
                 "gate signal index out of range");
  const double vg = ctx.gate_voltage_v[static_cast<std::size_t>(d.gate_signal)];
  const double dvt = (d.dvt_index >= 0 &&
                      static_cast<std::size_t>(d.dvt_index) < ctx.dvt_v.size())
                         ? ctx.dvt_v[static_cast<std::size_t>(d.dvt_index)]
                         : 0.0;
  const double vds = v_hi - v_lo;
  if (d.type == DeviceType::kNmos) {
    // Current flows drain (v_hi) -> source (v_lo); Vgs measured from source.
    return subthreshold_current(*ctx.tech, DeviceType::kNmos, d.w_nm, ctx.l_nm, vg - v_lo, vds,
                                dvt);
  }
  // PMOS: source is the high node; Vsg = v_hi - vg, Vsd = vds.
  return subthreshold_current(*ctx.tech, DeviceType::kPmos, d.w_nm, ctx.l_nm, v_hi - vg, vds, dvt);
}

double element_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi);

// Solves a series chain for ln I. For a trial current I, march the chain
// bottom-up, inverting every element but the last on its monotone I-V curve
// for the voltage it consumes at I; the residual ln I - ln I_last(v, v_hi)
// then rises with I and is continuous at the root. Once an element cannot
// carry I even with the whole remaining swing across it, I is too large and
// the residual is any positive value. Stack currents span many decades, and
// an ON device next to an OFF one consumes ~1e-13 V, so the chain is solved
// in log-current and each node voltage to a fixed fraction of the swing.
double series_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi) {
  const auto& ch = n.children();

  // Upper bound: no element can carry more than it would with the full swing
  // across it.
  double hi_i = std::numeric_limits<double>::infinity();
  for (const auto& c : ch) hi_i = std::min(hi_i, element_current(c, ctx, v_lo, v_hi));
  if (hi_i <= 0.0) return 0.0;

  const double v_tol = kVoltTolerance * (v_hi - v_lo);
  const auto residual = [&](double log_i) {
    const double i = std::exp(log_i);
    double v = v_lo;
    for (std::size_t k = 0; k + 1 < ch.size(); ++k) {
      const double v_below = v;
      v = math::brent_root(
          [&](double v_above) { return element_current(ch[k], ctx, v_below, v_above) - i; },
          v_below, v_hi, v_tol);
      if (v >= v_hi) return 1.0;
    }
    const double i_last = element_current(ch.back(), ctx, v, v_hi);
    return i_last > 0.0 ? log_i - std::log(i_last) : 1.0;
  };

  // The chain current cannot be more than ~e^53 below the weakest element's
  // full-swing current (ON/OFF current ratio bound), so 1e-36 relative is a
  // safe floor.
  const double hi_log = std::log(hi_i);
  return std::exp(math::brent_root(residual, hi_log + std::log(1e-36), hi_log, kLogTolerance));
}

double element_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi) {
  switch (n.kind()) {
    case Network::Kind::kDevice:
      return device_current(n.dev(), ctx, v_lo, v_hi);
    case Network::Kind::kParallel: {
      double s = 0.0;
      for (const auto& c : n.children()) s += element_current(c, ctx, v_lo, v_hi);
      return s;
    }
    case Network::Kind::kSeries:
      return series_current(n, ctx, v_lo, v_hi);
  }
  throw NumericalError("element_current: unreachable network kind");
}

}  // namespace

double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v) {
  RGLEAK_REQUIRE(v_hi_v >= v_lo_v, "network_current needs v_hi >= v_lo");
  if (v_hi_v == v_lo_v) return 0.0;
  return element_current(network, ctx, v_lo_v, v_hi_v);
}

}  // namespace rgleak::device
