#pragma once
// Shared setup for the experiment harness: the benchmark process corner and
// cached characterized libraries. Every bench binary regenerates one table or
// figure of the paper (see DESIGN.md §4) and prints the corresponding rows.

#include <cmath>
#include <cstdint>
#include <iostream>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "cells/library.h"
#include "charlib/characterize.h"
#include "process/variation.h"
#include "util/memory.h"

namespace rgleak::bench {

/// The benchmark process corner: L = 40 +/- 2.5 nm total (even D2D/WID
/// split), exponential WID correlation with a 0.1 mm correlation length —
/// so that benchmark-sized dies (tens of um to mm) span the correlation
/// decay.
inline process::ProcessVariation bench_process(double corr_length_nm = 1.0e5,
                                               double d2d_share = 0.5) {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  const double total_var = 2.5 * 2.5;
  len.sigma_d2d_nm = std::sqrt(total_var * d2d_share);
  len.sigma_wid_nm = std::sqrt(total_var * (1.0 - d2d_share));
  process::VtVariation vt;
  vt.sigma_v = 0.02;
  return process::ProcessVariation(
      len, vt, std::make_shared<process::ExponentialCorrelation>(corr_length_nm));
}

inline const cells::StdCellLibrary& library() {
  static const cells::StdCellLibrary lib = cells::build_virtual90_library();
  return lib;
}

/// Analytically characterized full library at the default bench corner.
inline const charlib::CharacterizedLibrary& chars_analytic() {
  static const charlib::CharacterizedLibrary chars =
      charlib::characterize_analytic(library(), bench_process());
  return chars;
}

/// MC-characterized full library (heavier; built on first use).
inline const charlib::CharacterizedLibrary& chars_mc() {
  static const charlib::CharacterizedLibrary chars = [] {
    charlib::McCharOptions opts;
    opts.samples = 30000;
    return charlib::characterize_monte_carlo(library(), bench_process(), opts);
  }();
  return chars;
}

/// Peak resident set size of this process in KiB (0 where unavailable).
/// Monotone over the process lifetime — per-record deltas are not meaningful,
/// only the high-water mark.
inline double peak_rss_kb() {
#if defined(_WIN32)
  return 0.0;
#else
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss);  // Linux reports KiB
#endif
}

/// High-water mark of bytes charged against the process MemoryBudget by the
/// tracked arenas (the exact estimators' tables and transform grid, the MC
/// workers' sampler copies and workspaces). With no limit set, charging is
/// pure bookkeeping: the record shows what admission would price the run at
/// (core/cost_model.h's arena formulas).
inline std::uint64_t budget_peak_bytes() {
  return util::MemoryBudget::process().peak();
}

inline void banner(const char* title, const char* paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace rgleak::bench
