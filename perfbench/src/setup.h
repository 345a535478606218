#pragma once
// Workload inputs: the process corners, library characterization (plain, or
// replayed call by call for a traced run), and the seeded generators of every
// workload's designs and manifest.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "cells/library.h"
#include "charlib/characterize.h"
#include "netlist/netlist.h"
#include "placement/placement.h"
#include "process/variation.h"

namespace perfbench {

/// Worker threads of every workload: nproc - 1 on the 4-CPU reference box,
/// leaving a core for the checkpoint flusher or the batch dispatcher.
constexpr std::size_t kThreads = 3;

/// The benchmark corner: L = 40 +/- 2.5 nm with an even D2D/WID split,
/// exponential WID correlation with a 0.1 mm length, 20 mV random Vt.
rgleak::process::ProcessVariation bench_process();

/// A characterized corner. The library lives on the heap so netlists and the
/// characterization can keep pointers to it.
struct Corner {
  std::string name;
  std::unique_ptr<rgleak::cells::StdCellLibrary> library;
  std::unique_ptr<rgleak::charlib::CharacterizedLibrary> chars;
};

/// Builds the virtual 90 nm library (retargeted to `temperature_c` when given)
/// and characterizes it at the bench process shifted by `delta_l_nm`, the way
/// core::analyze_corners builds a corner. With an enabled tracer the
/// characterizer is replayed through its public per-(cell, state) calls,
/// each in its own span.
Corner make_corner(const std::string& name, double delta_l_nm,
                   std::optional<double> temperature_c, Tracer& tracer);

/// characterize_analytic replayed one public call per (cell, state): the fit
/// (span charlib.fit, including the device solves it makes) and the exact
/// moments (span math.moments). Yields the same CharacterizedLibrary.
rgleak::charlib::CharacterizedLibrary characterize_replay(
    const rgleak::cells::StdCellLibrary& lib, const rgleak::process::ProcessVariation& pv,
    Tracer& tracer);

/// The TT/25C and FF/110C corners of core::standard_corners (one D2D sigma of
/// systematic L shift).
std::vector<Corner> signoff_corners(Tracer& tracer);

/// Characterization cost probe for traced runs: times Cell::leakage_na at the
/// fit points of every (cell, state) pair of `corner`.
struct LeakageProbe {
  double leakage_us = 0.0;  ///< mean per call
  std::size_t calls = 0;    ///< leakage solves one characterization makes
};
LeakageProbe probe_leakage(const Corner& corner);

/// mc-validate: 48x48 sites at 1.5 um, INV_X1/NAND2_X1/NOR2_X1 at 0.4/0.4/0.2.
struct McDesign {
  std::unique_ptr<rgleak::netlist::Netlist> netlist;
  rgleak::placement::Floorplan floorplan;
};
McDesign make_mc_design(const rgleak::cells::StdCellLibrary& lib, std::uint64_t seed);

/// plan-batch: one early-planning `estimate` job of the manifest.
struct PlanJob {
  std::string id;
  std::size_t gates = 0;
  std::string die_um;  ///< "WxH", um, as the manifest spells it
  std::string usage;   ///< "CELL:count,..."
  std::string method;  ///< auto | linear | rect | polar
  bool p_max = false;  ///< p = "max", else p = 0.5
};

/// The plan-batch manifest: kPlanJobsPerMethod jobs for each of auto, linear,
/// rect and polar, with gate counts log-uniform over 1e3..1e6, aspects uniform
/// over 1..4, usage cycling through the nine ISCAS85 compositions and the
/// bench mix, and p = max on half the jobs of every mix. The job population
/// and order are stratified (see setup.cpp); the seed draws the gate counts
/// inside their strata.
constexpr std::size_t kPlanJobsPerMethod = 30;
std::vector<PlanJob> make_plan_jobs(const rgleak::cells::StdCellLibrary& lib,
                                    std::uint64_t seed);

/// The JSONL manifest line of `job`, reading its library from `lib_path`.
std::string manifest_line(const PlanJob& job, const std::string& lib_path);

/// table1-signoff: the nine ISCAS85 circuits regenerated onto their
/// Floorplan::for_gate_count grids, plus the c5315 and c7552 mixes at 128^2
/// and 256^2 sites.
struct SignoffDesign {
  std::unique_ptr<rgleak::netlist::Netlist> netlist;
  rgleak::placement::Floorplan floorplan;
};
std::vector<SignoffDesign> make_signoff_designs(const rgleak::cells::StdCellLibrary& lib,
                                                std::uint64_t seed, Tracer& tracer);

/// Writes `lines` (newline-terminated) to `path`; throws on failure.
void write_lines(const std::string& path, const std::vector<std::string>& lines);

}  // namespace perfbench
