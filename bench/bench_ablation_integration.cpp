// Ablation (DESIGN.md): the constant-time estimator's internal choices —
// the rect form (eq. 20 by its exact radial reduction) vs the polar form
// (eqs. 25/26), and quadrature tolerance — accuracy vs cost against the
// exact O(n) reference on a large die.

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/estimators.h"
#include "placement/placement.h"
#include "util/table.h"

int main() {
  using namespace rgleak;
  using clock = std::chrono::steady_clock;
  bench::banner("Integration-method ablation", "DESIGN.md ablation index");

  const auto& lib = bench::library();
  const auto& chars = bench::chars_analytic();
  netlist::UsageHistogram usage;
  usage.alphas.assign(lib.size(), 0.0);
  usage.alphas[lib.index_of("INV_X1")] = 0.5;
  usage.alphas[lib.index_of("NAND2_X1")] = 0.5;
  const core::RandomGate rg(chars, usage, 0.5, core::CorrelationMode::kAnalytic);

  placement::Floorplan fp;
  fp.rows = fp.cols = 1000;  // 1M gates, 1.5 mm die
  fp.site_w_nm = fp.site_h_nm = 1500.0;

  const core::LeakageEstimate ref = core::estimate_linear(rg, fp);
  std::cout << "reference (O(n), 1M gates): sigma = " << ref.sigma_na * 1e-3 << " uA\n\n";

  util::Table t({"method", "tolerance", "sigma (uA)", "err vs O(n) %", "time (ms)"});
  for (const double rel_tol : {1e-3, 1e-6, 1e-9}) {
    math::QuadratureOptions opts;
    opts.rel_tol = rel_tol;
    opts.abs_tol = 0.0;

    auto t0 = clock::now();
    const core::LeakageEstimate rect = core::estimate_integral_rect(rg, fp, opts);
    auto t1 = clock::now();
    bool used_polar = false;
    const core::LeakageEstimate polar = core::estimate_integral_polar(rg, fp, opts, &used_polar);
    auto t2 = clock::now();

    t.row()
        .cell("rect-radial")
        .cell(rel_tol, 1)
        .cell(rect.sigma_na * 1e-3, 6)
        .cell(100.0 * std::abs(rect.sigma_na - ref.sigma_na) / ref.sigma_na, 3)
        .cell(std::chrono::duration<double, std::milli>(t1 - t0).count(), 3);
    t.row()
        .cell(used_polar ? "polar-1D" : "polar(->rect)")
        .cell(rel_tol, 1)
        .cell(polar.sigma_na * 1e-3, 6)
        .cell(100.0 * std::abs(polar.sigma_na - ref.sigma_na) / ref.sigma_na, 3)
        .cell(std::chrono::duration<double, std::milli>(t2 - t1).count(), 3);
  }
  t.print(std::cout);
  std::cout << "\ntakeaway: both forms are one 1-D radial integral; where the polar form is\n"
               "valid (D_max < min(W, H), the paper's condition) it is the rect value at the\n"
               "same cost, and the rect form needs no validity condition\n";
  return 0;
}
