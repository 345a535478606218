#include "device/network.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/require.h"

namespace rgleak::device {
namespace {

const TechnologyParams kTech{};

NetworkDevice nmos(int gate, double w = 120.0) {
  NetworkDevice d;
  d.type = DeviceType::kNmos;
  d.gate_signal = gate;
  d.w_nm = w;
  return d;
}

NetworkDevice pmos(int gate, double w = 200.0) {
  NetworkDevice d;
  d.type = DeviceType::kPmos;
  d.gate_signal = gate;
  d.w_nm = w;
  return d;
}

struct Ctx {
  std::vector<double> volts;
  NetworkEvalContext ctx;
  explicit Ctx(std::vector<double> v) : volts(std::move(v)) {
    ctx.tech = &kTech;
    ctx.gate_voltage_v = volts;
    ctx.l_nm = 40.0;
  }
};

TEST(Network, SingleOffDeviceMatchesFormula) {
  const Network n = Network::device(nmos(0));
  Ctx c({0.0});
  const double i = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i, subthreshold_current(kTech, DeviceType::kNmos, 120, 40, 0.0, 1.0, 0.0),
              1e-9 * i);
}

TEST(Network, SingleOffPmosMatchesFormula) {
  const Network n = Network::device(pmos(0));
  Ctx c({1.0});  // PMOS gate at VDD -> off
  const double i = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i, subthreshold_current(kTech, DeviceType::kPmos, 200, 40, 0.0, 1.0, 0.0),
              1e-9 * i);
}

TEST(Network, ParallelSumsCurrents) {
  const Network a = Network::device(nmos(0));
  const Network b = Network::device(nmos(0, 240.0));
  const Network par = Network::parallel({a, b});
  Ctx c({0.0});
  const double ia = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  const double ip = network_current(par, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(ip, 3.0 * ia, 1e-9 * ip);
}

TEST(Network, StackEffectSuppressesLeakage) {
  // Two series OFF devices leak much less than one (stack factor ~5-10x).
  Ctx c({0.0});
  const double single = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  const Network stack2 = Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const double dual = network_current(stack2, c.ctx, 0.0, 1.0);
  EXPECT_LT(dual, single / 2.5);
  EXPECT_GT(dual, single / 50.0);
}

TEST(Network, DeeperStacksLeakLess) {
  Ctx c({0.0});
  double prev = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  for (int depth = 2; depth <= 4; ++depth) {
    std::vector<Network> chain;
    for (int i = 0; i < depth; ++i) chain.push_back(Network::device(nmos(0)));
    const double i = network_current(Network::series(std::move(chain)), c.ctx, 0.0, 1.0);
    EXPECT_LT(i, prev) << "depth=" << depth;
    prev = i;
  }
}

TEST(Network, OnDeviceInSeriesIsTransparent) {
  // series(ON, OFF) ~ the OFF device alone with nearly full bias (slightly
  // larger than a 2-stack, close to single-device leakage).
  Ctx c({0.0, 1.0});
  const Network on_off = Network::series({Network::device(nmos(1)), Network::device(nmos(0))});
  const double i = network_current(on_off, c.ctx, 0.0, 1.0);
  const double single = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
  EXPECT_GT(i, 0.5 * single);
  EXPECT_LT(i, 1.5 * single);
}

TEST(Network, OnDeviceOnTheSourceSideCarriesTheOffCurrent) {
  // An ON device between an OFF device's source and its rail drops ~1e-13 V,
  // so the pair carries the lone OFF device's current. The node then sits
  // within a few hundred ULPs of the rail, where one ULP moves the ON
  // device's current by ~1e-4: the pair must be solved for the current, not
  // read off either side of a node voltage.
  Ctx c({0.0, 1.0});  // signal 0 low, signal 1 high
  const Network nmos_pair =
      Network::series({Network::device(nmos(1)), Network::device(nmos(0))});  // ON below
  const Network pmos_pair =
      Network::series({Network::device(pmos(1)), Network::device(pmos(0))});  // ON above
  for (const double l : {34.0, 40.0, 46.0}) {
    c.ctx.l_nm = l;
    const double n_off = network_current(Network::device(nmos(0)), c.ctx, 0.0, 1.0);
    const double p_off = network_current(Network::device(pmos(1)), c.ctx, 0.0, 1.0);
    EXPECT_NEAR(network_current(nmos_pair, c.ctx, 0.0, 1.0), n_off, 1e-10 * n_off) << "L " << l;
    EXPECT_NEAR(network_current(pmos_pair, c.ctx, 0.0, 1.0), p_off, 1e-10 * p_off) << "L " << l;
  }
}

TEST(Network, MiddleOnDeviceThreeStack) {
  // OFF / ON / OFF: the pathological case for naive nodal iteration. The
  // result must be close to a 2-stack of the OFF devices.
  Ctx c({0.0, 1.0});
  const Network chain = Network::series({Network::device(nmos(0)), Network::device(nmos(1)),
                                         Network::device(nmos(0))});
  const Network two_stack =
      Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const double i3 = network_current(chain, c.ctx, 0.0, 1.0);
  const double i2 = network_current(two_stack, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i3, i2, 0.2 * i2);
}

TEST(Network, SeriesOrderInvariantForIdenticalTerminals) {
  // OFF-NMOS over OFF-PMOS vs the reverse order: physically different
  // circuits, but both must solve and carry positive current.
  Ctx c({0.0, 1.0});  // nmos gate 0 (off), pmos gate 1 (off)
  const Network a = Network::series({Network::device(nmos(0)), Network::device(pmos(1))});
  const Network b = Network::series({Network::device(pmos(1)), Network::device(nmos(0))});
  const double ia = network_current(a, c.ctx, 0.0, 1.0);
  const double ib = network_current(b, c.ctx, 0.0, 1.0);
  EXPECT_GT(ia, 0.0);
  EXPECT_GT(ib, 0.0);
}

TEST(Network, SeriesOfParallelGroups) {
  // series(parallel(off, off), off): the parallel group doubles the width.
  Ctx c({0.0});
  const Network net = Network::series(
      {Network::parallel({Network::device(nmos(0)), Network::device(nmos(0))}),
       Network::device(nmos(0))});
  const Network wide_then_narrow =
      Network::series({Network::device(nmos(0, 240.0)), Network::device(nmos(0))});
  const double i1 = network_current(net, c.ctx, 0.0, 1.0);
  const double i2 = network_current(wide_then_narrow, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i1, i2, 1e-6 * i2);
}

TEST(Network, ParallelOfSeriesChains) {
  // XOR-style PDN: parallel(series(off,off), series(off,off)) = 2x one chain.
  Ctx c({0.0});
  const Network chain = Network::series({Network::device(nmos(0)), Network::device(nmos(0))});
  const Network par = Network::parallel({chain, chain});
  const double i1 = network_current(chain, c.ctx, 0.0, 1.0);
  const double i2 = network_current(par, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i2, 2.0 * i1, 1e-6 * i2);
}

TEST(Network, FlattensNestedSeries) {
  const Network nested = Network::series(
      {Network::device(nmos(0)),
       Network::series({Network::device(nmos(0)), Network::device(nmos(0))})});
  EXPECT_EQ(nested.children().size(), 3u);
  const Network nested_par = Network::parallel(
      {Network::device(nmos(0)),
       Network::parallel({Network::device(nmos(0)), Network::device(nmos(0))})});
  EXPECT_EQ(nested_par.children().size(), 3u);
}

TEST(Network, SingleChildCollapses) {
  const Network s = Network::series({Network::device(nmos(0))});
  EXPECT_EQ(s.kind(), Network::Kind::kDevice);
}

TEST(Network, DeviceCountAndCollect) {
  const Network net = Network::series(
      {Network::parallel({Network::device(nmos(0)), Network::device(nmos(1))}),
       Network::device(pmos(2))});
  EXPECT_EQ(net.device_count(), 3u);
  std::vector<const NetworkDevice*> devs;
  net.collect_devices(devs);
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_EQ(devs[2]->type, DeviceType::kPmos);
}

TEST(Network, PerDeviceVtShiftApplied) {
  NetworkDevice d = nmos(0);
  d.dvt_index = 0;
  const Network n = Network::device(d);
  Ctx c({0.0});
  std::vector<double> dvt = {0.05};
  c.ctx.dvt_v = dvt;
  const double i_shift = network_current(n, c.ctx, 0.0, 1.0);
  c.ctx.dvt_v = {};
  const double i_base = network_current(n, c.ctx, 0.0, 1.0);
  EXPECT_NEAR(i_shift / i_base,
              std::exp(-0.05 / (kTech.subthreshold_n * kTech.thermal_vt_v)), 1e-9);
}

TEST(Network, ZeroBiasZeroCurrent) {
  Ctx c({0.0});
  EXPECT_DOUBLE_EQ(network_current(Network::device(nmos(0)), c.ctx, 0.5, 0.5), 0.0);
}

TEST(Network, ContractChecks) {
  Ctx c({0.0});
  EXPECT_THROW(network_current(Network::device(nmos(0)), c.ctx, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(Network::series({}), ContractViolation);
  EXPECT_THROW(Network::parallel({}), ContractViolation);
  // Gate signal out of range.
  EXPECT_THROW(network_current(Network::device(nmos(5)), c.ctx, 0.0, 1.0), ContractViolation);
  const Network n = Network::device(nmos(0));
  EXPECT_THROW(Network::series({n, n}).dev(), ContractViolation);
}

TEST(Network, CurrentContinuityInChain) {
  // The solved chain current must be bounded by the most- and least-leaky
  // single elements under full bias.
  Ctx c({0.0});
  const Network chain = Network::series({Network::device(nmos(0, 240.0)),
                                         Network::device(nmos(0, 120.0)),
                                         Network::device(nmos(0, 360.0))});
  const double i = network_current(chain, c.ctx, 0.0, 1.0);
  const double weakest = network_current(Network::device(nmos(0, 120.0)), c.ctx, 0.0, 1.0);
  EXPECT_GT(i, 0.0);
  EXPECT_LT(i, weakest);
}

}  // namespace
}  // namespace rgleak::device
