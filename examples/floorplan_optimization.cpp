// Variance-aware floorplanning: the chip-total mean doesn't care where
// blocks sit, but the sigma does — cross-block covariances decay with
// separation. The annealer searches block-to-slot assignments for the
// minimum-sigma layout using exact covariance evaluations (no Monte Carlo in
// the loop).

#include <cstdio>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "core/floorplan_optimizer.h"
#include "core/yield.h"
#include "process/variation.h"

using namespace rgleak;

namespace {

netlist::UsageHistogram mix(const cells::StdCellLibrary& lib,
                            const std::vector<std::pair<std::string, double>>& m) {
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  double total = 0.0;
  for (const auto& [n, a] : m) total += a;
  for (const auto& [n, a] : m) u.alphas[lib.index_of(n)] = a / total;
  return u;
}

core::BlockSpec block(std::string name, netlist::UsageHistogram usage, std::size_t c0,
                      std::size_t r0, std::size_t side) {
  core::BlockSpec b;
  b.name = std::move(name);
  b.usage = std::move(usage);
  b.col0 = c0;
  b.row0 = r0;
  b.cols = b.rows = side;
  return b;
}

}  // namespace

int main() {
  const cells::StdCellLibrary lib = cells::build_virtual90_library();
  // Mostly-WID process with a short correlation length: separation matters.
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = 0.8;
  len.sigma_wid_nm = 2.37;
  const process::ProcessVariation process(
      len, process::VtVariation{}, std::make_shared<process::ExponentialCorrelation>(6.0e4));
  const charlib::CharacterizedLibrary chars = charlib::characterize_analytic(lib, process);

  // Eight 60x60-site blocks on a 240x120 grid (slots in a 4x2 arrangement):
  // two leaky SRAM-ish blocks, two hot datapaths, four quiet control blocks.
  placement::Floorplan fp;
  fp.cols = 240;
  fp.rows = 120;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  const auto sram = mix(lib, {{"SRAM6T", 9.0}, {"INV_X2", 1.0}});
  const auto dp = mix(lib, {{"FA_X1", 2.0}, {"XOR2_X1", 1.0}, {"MUX2_X1", 1.0},
                            {"INV_X4", 1.0}});
  const auto ctl = mix(lib, {{"NAND3_X1", 2.0}, {"NAND2_X1", 1.0}, {"INV_X1", 1.0},
                             {"DFF_X1", 1.0}});

  std::vector<core::BlockSpec> blocks;
  const char* names[8] = {"sram0", "sram1", "dp0", "dp1", "ctl0", "ctl1", "ctl2", "ctl3"};
  const netlist::UsageHistogram* mixes[8] = {&sram, &sram, &dp, &dp, &ctl, &ctl, &ctl, &ctl};
  for (int i = 0; i < 8; ++i)
    blocks.push_back(block(names[i], *mixes[i], static_cast<std::size_t>(i % 4) * 60,
                           static_cast<std::size_t>(i / 4) * 60, 60));

  core::MultiBlockEstimator mb(chars, fp, blocks);
  std::printf("initial layout (hot blocks adjacent):\n");
  for (std::size_t b = 0; b < mb.num_blocks(); ++b)
    std::printf("  %-6s at slot (%zu, %zu)\n", mb.block(b).name.c_str(),
                mb.block(b).col0 / 60, mb.block(b).row0 / 60);

  core::FloorplanOptimizerOptions opts;
  opts.iterations = 1500;
  const core::FloorplanOptimizerResult r = core::optimize_floorplan(mb, opts);

  std::printf("\noptimized layout:\n");
  for (std::size_t b = 0; b < mb.num_blocks(); ++b)
    std::printf("  %-6s at slot (%zu, %zu)\n", mb.block(b).name.c_str(),
                mb.block(b).col0 / 60, mb.block(b).row0 / 60);

  const auto chip = mb.chip_estimate();
  std::printf("\nchip sigma: %.3f -> %.3f uA (%.2f%% reduction, %zu accepted moves)\n",
              r.initial_sigma_na * 1e-3, r.final_sigma_na * 1e-3,
              100.0 * (r.initial_sigma_na - r.final_sigma_na) / r.initial_sigma_na,
              r.accepted_moves);
  core::LeakageEstimate initial = chip;
  initial.sigma_na = r.initial_sigma_na;
  const core::LeakageYieldModel before(initial);
  const core::LeakageYieldModel after(chip);
  std::printf("P99 budget:  %.3f -> %.3f uA\n", before.quantile(0.99) * 1e-3,
              after.quantile(0.99) * 1e-3);
  return 0;
}
