// Contracts of the MC trial path (DESIGN.md "MC performance"): a trial's
// total is exactly the compensated per-gate sum of table evaluations over
// the engine's RNG stream, and the steady-state trial loop never allocates.

#include "mc/full_chip_mc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "charlib/leakage_table.h"
#include "math/rng.h"
#include "netlist/random_circuit.h"
#include "process/field_sampler.h"
#include "util/alloc_count.h"

namespace rgleak::mc {
namespace {

using rgleak::testing::allocation_count;
using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

netlist::UsageHistogram test_usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.6;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  return u;
}

placement::Floorplan grid(std::size_t rows, std::size_t cols) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = 1500.0;
  fp.site_h_nm = 1500.0;
  return fp;
}

// Neumaier summation exactly as the engine accumulates a trial, so the
// reference below can be compared for equality rather than to a tolerance.
double compensated_sum(const std::vector<double>& values) {
  double sum = 0.0, comp = 0.0;
  for (const double v : values) {
    const double t = sum + v;
    comp += std::abs(sum) >= std::abs(v) ? (sum - t) + v : (v - t) + sum;
    sum = t;
  }
  return sum + comp;
}

TEST(McPerfPath, SampleTotalIsThePerGateTableSum) {
  // Rebuild a trial outside the engine from its public parts: the same RNG
  // stream (states when resampled, then D2D, then the WID field), a fresh
  // GridFieldSampler, and one LeakageTable per (cell, state) over the
  // engine's length range. The engine's total must equal
  // sum_g eval_na(mu + d2d + wid[site(g)]) bit for bit.
  math::Rng gen(61);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 144, gen);
  const placement::Placement pl(&nl, grid(12, 12));
  const charlib::CharacterizedLibrary& chars = mini_chars_analytic();
  const cells::StdCellLibrary& lib = chars.library();
  const process::ProcessVariation& pv = chars.process();
  const placement::Floorplan& fp = pl.floorplan();
  const double mu = pv.length().mean_nm;
  const double span = 8.0 * pv.length().sigma_total_nm();
  const std::size_t points = FullChipMcOptions{}.table_points;

  std::map<std::pair<std::size_t, std::uint32_t>, charlib::LeakageTable> tables;
  const auto table = [&](std::size_t cell, std::uint32_t state) -> const charlib::LeakageTable& {
    auto it = tables.find({cell, state});
    if (it == tables.end())
      it = tables
               .emplace(std::piecewise_construct, std::forward_as_tuple(cell, state),
                        std::forward_as_tuple(lib.cell(cell), state, lib.tech(),
                                              std::max(mu - span, 1.0),
                                              mu + std::max(span, 1e-3), points))
               .first;
    return it->second;
  };
  const auto draw_states = [&](math::Rng& rng, double p) {
    std::vector<std::uint32_t> states(nl.size());
    for (std::size_t g = 0; g < nl.size(); ++g)
      for (int bit = 0; bit < lib.cell(nl.gate(g).cell_index).num_inputs(); ++bit)
        if (rng.bernoulli(p)) states[g] |= 1u << bit;
    return states;
  };

  for (const bool resample : {false, true}) {
    FullChipMcOptions opts;
    opts.resample_states_per_trial = resample;
    FullChipMonteCarlo mc(pl, chars, opts);

    process::GridFieldSampler field(fp.rows, fp.cols, fp.site_w_nm, fp.site_h_nm,
                                    pv.wid_correlation(), pv.length().sigma_wid_nm,
                                    pv.anisotropy());
    process::FieldWorkspace ws;
    std::vector<double> wid;
    math::Rng seed_rng(opts.seed);  // fixed states come from the engine's seed
    std::vector<std::uint32_t> states = draw_states(seed_rng, opts.signal_probability);
    math::Rng engine_rng(12345), ref_rng(12345);
    for (int t = 0; t < 20; ++t) {
      if (resample) states = draw_states(ref_rng, opts.signal_probability);
      const double d2d = ref_rng.normal(0.0, pv.length().sigma_d2d_nm);
      field.sample_into(ref_rng, ws, wid);
      std::vector<double> leak(nl.size());
      for (std::size_t g = 0; g < nl.size(); ++g)
        leak[g] = table(nl.gate(g).cell_index, states[g]).eval_na(mu + d2d + wid[pl.site_of(g)]);
      EXPECT_EQ(mc.sample_total_na(engine_rng), compensated_sum(leak))
          << "trial " << t << " resample=" << resample;
    }
  }
}

TEST(McPerfPath, ThreadedCheckpointedRunIsAllocationLean) {
  // The threaded checkpoint path must stream state through the reused writer
  // buffer instead of deep-copying worker slices: allocations per checkpoint
  // cadence stay bounded by file-I/O setup, independent of sample volume.
  // (An absolute zero is not asserted here — ofstream construction and the
  // thread-pool round trip legitimately allocate a handful of blocks.)
  math::Rng gen(73);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 64, gen);
  const placement::Placement pl(&nl, grid(8, 8));
  FullChipMcOptions opts;
  opts.trials = 400;
  opts.threads = 2;
  opts.checkpoint_every = 40;
  opts.checkpoint_path = ::testing::TempDir() + "mc_perf_alloc.ckpt";
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  const FullChipMcResult r = mc.run();
  EXPECT_EQ(r.trials, 400u);
}

TEST(McPerfPath, SteadyStateTrialLoopDoesNotAllocateFixedStates) {
  math::Rng gen(79);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 144, gen);
  const placement::Placement pl(&nl, grid(12, 12));
  FullChipMcOptions opts;  // fixed states
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  math::Rng rng(5150);
  double sink = 0.0;
  for (int t = 0; t < 5; ++t) sink += mc.sample_total_na(rng);  // warm the workspace

  const std::size_t before = allocation_count();
  for (int t = 0; t < 100; ++t) sink += mc.sample_total_na(rng);
  const std::size_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "steady-state trials allocated";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(McPerfPath, SteadyStateTrialLoopDoesNotAllocateResampledStates) {
  // Per-trial state resampling redraws every gate's table id; the per-gate
  // id array must reuse its capacity.
  math::Rng gen(83);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 144, gen);
  const placement::Placement pl(&nl, grid(12, 12));
  FullChipMcOptions opts;
  opts.resample_states_per_trial = true;
  FullChipMonteCarlo mc(pl, mini_chars_analytic(), opts);
  math::Rng rng(5151);
  double sink = 0.0;
  // Warm-up also has to visit every (cell, state) pair so the lazy table
  // cache is fully populated before the measured region.
  for (int t = 0; t < 40; ++t) sink += mc.sample_total_na(rng);

  const std::size_t before = allocation_count();
  for (int t = 0; t < 100; ++t) sink += mc.sample_total_na(rng);
  const std::size_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "steady-state resampled trials allocated";
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace rgleak::mc
