#include "setup.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "core/corner_analysis.h"
#include "device/subthreshold.h"
#include "math/mgf.h"
#include "math/rng.h"
#include "netlist/iscas85.h"
#include "netlist/random_circuit.h"
#include "util/format.h"

namespace perfbench {

using namespace rgleak;

process::ProcessVariation bench_process() {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = 2.5 / std::sqrt(2.0);
  process::VtVariation vt;
  vt.sigma_v = 0.02;
  return process::ProcessVariation(len, vt,
                                   std::make_shared<process::ExponentialCorrelation>(1.0e5));
}

charlib::CharacterizedLibrary characterize_replay(const cells::StdCellLibrary& lib,
                                                  const process::ProcessVariation& pv,
                                                  Tracer& tracer) {
  const auto root = tracer.span("charlib.characterize", "charlib");
  const double mu = pv.length().mean_nm;
  const double sigma = pv.length().sigma_total_nm();
  std::vector<charlib::CellChar> cells;
  cells.reserve(lib.size());
  for (std::size_t ci = 0; ci < lib.size(); ++ci) {
    const cells::Cell& cell = lib.cell(ci);
    charlib::CellChar cc;
    cc.states.resize(cell.num_states());
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      math::LogQuadraticModel model;
      {
        const auto span = tracer.span("charlib.fit", "charlib");
        model = charlib::fit_log_quadratic(cell, s, lib.tech(), mu, sigma);
      }
      const auto span = tracer.span("math.moments", "math");
      const math::LogQuadraticMoments moments(model, mu, sigma);
      cc.states[s].mean_na = moments.mean();
      cc.states[s].sigma_na = moments.stddev();
      cc.states[s].model = model;
    }
    cells.push_back(std::move(cc));
  }
  return charlib::CharacterizedLibrary(&lib, pv, std::move(cells));
}

Corner make_corner(const std::string& name, double delta_l_nm,
                   std::optional<double> temperature_c, Tracer& tracer) {
  Corner c;
  c.name = name;
  {
    const auto span = tracer.span("cells.build_library", "cells");
    const device::TechnologyParams base{};
    c.library = std::make_unique<cells::StdCellLibrary>(cells::build_virtual90_library(
        temperature_c ? device::at_temperature(base, *temperature_c + 273.15) : base));
  }
  const process::ProcessVariation base = bench_process();
  process::LengthVariation len = base.length();
  len.mean_nm += delta_l_nm;
  const process::ProcessVariation pv(len, base.vt(), base.wid_correlation_ptr(),
                                     base.anisotropy());
  if (tracer.enabled()) {
    c.chars = std::make_unique<charlib::CharacterizedLibrary>(
        characterize_replay(*c.library, pv, tracer));
  } else {
    c.chars = std::make_unique<charlib::CharacterizedLibrary>(
        charlib::characterize_analytic(*c.library, pv));
  }
  return c;
}

std::vector<Corner> signoff_corners(Tracer& tracer) {
  std::vector<Corner> corners;
  for (const core::ProcessCorner& pc :
       core::standard_corners(bench_process().length().sigma_d2d_nm)) {
    if (pc.name == "TT/25C" || pc.name == "FF/110C")
      corners.push_back(make_corner(pc.name, pc.delta_l_nm, pc.temperature_c, tracer));
  }
  if (corners.size() != 2)
    throw std::runtime_error("core::standard_corners lacks TT/25C or FF/110C");
  return corners;
}

LeakageProbe probe_leakage(const Corner& corner) {
  const charlib::AnalyticCharOptions opts;
  const process::ProcessVariation& pv = corner.chars->process();
  const double mu = pv.length().mean_nm;
  const double sigma = pv.length().sigma_total_nm();
  const double span = opts.fit_span_sigma * sigma;
  const double lo = std::max(mu - span, 1.0);
  const double hi = mu + std::max(span, 1e-3);
  LeakageProbe p;
  double total_ms = 0.0;
  for (std::size_t ci = 0; ci < corner.library->size(); ++ci) {
    const cells::Cell& cell = corner.library->cell(ci);
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      for (std::size_t i = 0; i < opts.fit_points; ++i) {
        const double l = lo + (hi - lo) * static_cast<double>(i) /
                                  static_cast<double>(opts.fit_points - 1);
        const auto t0 = Clock::now();
        const double leak = cell.leakage_na(s, l, corner.library->tech());
        total_ms += ms_since(t0);
        if (!(leak > 0.0)) throw std::runtime_error("non-positive leakage in probe");
        ++p.calls;
      }
    }
  }
  p.leakage_us = p.calls == 0 ? 0.0 : 1e3 * total_ms / static_cast<double>(p.calls);
  return p;
}

McDesign make_mc_design(const cells::StdCellLibrary& lib, std::uint64_t seed) {
  constexpr std::size_t kSide = 48;
  netlist::UsageHistogram usage;
  usage.alphas.assign(lib.size(), 0.0);
  usage.alphas[lib.index_of("INV_X1")] = 0.4;
  usage.alphas[lib.index_of("NAND2_X1")] = 0.4;
  usage.alphas[lib.index_of("NOR2_X1")] = 0.2;
  math::Rng rng(mix_seed(seed, 1));
  McDesign d;
  d.netlist = std::make_unique<netlist::Netlist>(
      netlist::generate_random_circuit(lib, usage, kSide * kSide, rng));
  d.floorplan.rows = d.floorplan.cols = kSide;
  d.floorplan.site_w_nm = d.floorplan.site_h_nm = 1500.0;
  return d;
}

namespace {

std::string usage_spec(const std::vector<std::pair<std::string, std::size_t>>& counts) {
  std::string s;
  for (const auto& [cell, n] : counts) {
    if (!s.empty()) s += ',';
    s += cell + ":" + std::to_string(n);
  }
  return s;
}

}  // namespace

std::vector<PlanJob> make_plan_jobs(const cells::StdCellLibrary& lib, std::uint64_t seed) {
  std::vector<std::string> mixes;
  for (const auto& d : netlist::iscas85_descriptors()) {
    for (const auto& [cell, n] : d.composition) (void)lib.index_of(cell);  // validates names
    mixes.push_back(usage_spec(d.composition));
  }
  mixes.push_back("INV_X1:0.4,NAND2_X1:0.4,NOR2_X1:0.2");
  const std::vector<std::string> methods = {"auto", "linear", "rect", "polar"};

  // Each method gets n strata of log10(gates) over [3, 6]; aspect strata and
  // (usage mix, p) combinations are dealt to them by fixed strides, and the
  // manifest interleaves the methods with the strata in a fixed stride order,
  // so every seed runs the same job population in the same order (heavy jobs
  // spread evenly over the batch). The seed draws each job's gate count inside
  // its stratum. The die is the stratum's own (its centre's gate count at
  // 1.5 um pitch, its centre aspect): the adaptive rect integral refines in 4x
  // steps whose number follows W and H alone, so a die drawn per seed would
  // move jobs between cost classes from seed to seed.
  constexpr std::size_t n = kPlanJobsPerMethod;
  constexpr std::size_t kAspectStride = 17, kComboStride = 13, kOrderStride = 11;
  static_assert(std::gcd(kAspectStride, n) == 1 && std::gcd(kComboStride, n) == 1 &&
                    std::gcd(kOrderStride, n) == 1,
                "the strides must be permutations of the strata");
  math::Rng rng(mix_seed(seed, 2));
  std::vector<std::vector<PlanJob>> by_method(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t aspect_stratum = (k * kAspectStride + 5 * m) % n;
      const std::size_t combo = (k * kComboStride + 7 * m) % n;
      const auto log_gates = [&](double u) {
        return 3.0 + 3.0 * (static_cast<double>(k) + u) / static_cast<double>(n);
      };
      const double aspect =
          1.0 + 3.0 * (static_cast<double>(aspect_stratum) + 0.5) / static_cast<double>(n);
      PlanJob job;
      job.id = methods[m] + "-" + std::to_string(k);
      job.gates = static_cast<std::size_t>(std::llround(std::pow(10.0, log_gates(rng.uniform()))));
      // Die of the stratum centre's gate count at 1.5 um pitch, height = aspect * width.
      const double w_um = std::sqrt(std::pow(10.0, log_gates(0.5)) * 1.5 * 1.5 / aspect);
      job.die_um = util::format_double(w_um, 8) + "x" + util::format_double(aspect * w_um, 8);
      job.usage = mixes[combo % mixes.size()];
      job.method = methods[m];
      // Per method, each mix takes combo / mixes = 0, 1 and 2 once; flipping
      // the parity by method gives each mix 2 + 1 + 2 + 1 = 6 of its 12 jobs
      // at p = max.
      job.p_max = (combo / mixes.size() + m) % 2 == 0;
      by_method[m].push_back(std::move(job));
    }
  }
  std::vector<PlanJob> jobs;
  for (std::size_t pos = 0; pos < n; ++pos)
    for (std::size_t m = 0; m < methods.size(); ++m)
      jobs.push_back(by_method[m][(pos * kOrderStride + 7 * m) % n]);
  return jobs;
}

std::string manifest_line(const PlanJob& job, const std::string& lib_path) {
  return "{\"id\":\"" + job.id + "\",\"kind\":\"estimate\",\"lib\":\"" + lib_path +
         "\",\"gates\":" + std::to_string(job.gates) + ",\"die_um\":\"" + job.die_um +
         "\",\"usage\":\"" + job.usage + "\",\"method\":\"" + job.method + "\",\"p\":\"" +
         (job.p_max ? "max" : "0.5") + "\"}";
}

std::vector<SignoffDesign> make_signoff_designs(const cells::StdCellLibrary& lib,
                                                std::uint64_t seed, Tracer& tracer) {
  math::Rng rng(mix_seed(seed, 3));
  std::vector<SignoffDesign> designs;
  const auto add = [&](const netlist::UsageHistogram& usage, const placement::Floorplan& fp,
                       const std::string& name) {
    SignoffDesign d;
    d.floorplan = fp;
    const auto span = tracer.span("netlist.generate", "netlist");
    d.netlist = std::make_unique<netlist::Netlist>(netlist::generate_random_circuit(
        lib, usage, fp.num_sites(), rng, netlist::UsageMatch::kExact, name));
    designs.push_back(std::move(d));
  };
  for (const auto& desc : netlist::iscas85_descriptors()) {
    netlist::UsageHistogram usage;
    std::size_t gates = 0;
    {
      const auto span = tracer.span("netlist.generate", "netlist");
      const netlist::Netlist seed_nl = netlist::make_iscas85(desc, lib, rng);
      usage = netlist::extract_usage(seed_nl);
      gates = seed_nl.size();
    }
    // Like examples/late_signoff.cpp: the RG array is a full k x m grid, so
    // the circuit's histogram is instantiated onto the whole grid.
    add(usage, placement::Floorplan::for_gate_count(gates), desc.name);
    if (desc.name == "c5315" || desc.name == "c7552") {
      for (const std::size_t side : {std::size_t{128}, std::size_t{256}}) {
        placement::Floorplan fp;
        fp.rows = fp.cols = side;
        add(usage, fp, desc.name + "@" + std::to_string(side));
      }
    }
  }
  return designs;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream os(path, std::ios::binary);
  for (const std::string& l : lines) os << l << '\n';
  os.close();
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
