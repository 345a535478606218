#include "workloads.h"

#include <algorithm>

namespace perfbench {

void emit_layers(Report& rep, const std::map<std::string, double>& self_ms, double wall_ms) {
  static const char* const kLayers[] = {"cells",   "charlib", "math", "netlist",
                                        "process", "mc",      "core", "service"};
  double attributed = 0.0;
  for (const std::string layer : kLayers) {
    const auto it = self_ms.find(layer);
    if (it == self_ms.end()) continue;  // not exercised: reported as 0
    rep.set("self." + layer + "_ms", it->second);
    attributed += it->second;
  }
  rep.set("unattributed_ms", wall_ms - attributed);
}

void attribute_setup(Report& rep, const Tracer& setup_trace, double leakage_us,
                     std::size_t leakage_calls, std::size_t corners,
                     std::map<std::string, double>& self_ms) {
  for (const auto& [layer, ms] : setup_trace.self_ms_by_layer()) self_ms[layer] += ms;
  // The fits call Cell::leakage_na internally; from outside, their share is
  // the call count times the probed per-call cost.
  const double solves_ms = std::min(setup_trace.total_ms("charlib.fit"),
                                    1e-3 * leakage_us * static_cast<double>(leakage_calls));
  self_ms["charlib"] -= solves_ms;
  self_ms["cells"] += solves_ms;

  const auto n = static_cast<double>(corners);
  rep.set("charlib.characterize_ms", setup_trace.total_ms("charlib.characterize") / n);
  rep.set("charlib.fit_ms", setup_trace.total_ms("charlib.fit") / n);
  rep.set("cells.leakage_us", leakage_us);
  rep.set("cells.leakage_calls", static_cast<double>(leakage_calls));
  if (setup_trace.count("netlist.generate") > 0)
    rep.set("netlist.generate_ms", setup_trace.total_ms("netlist.generate"));
}

}  // namespace perfbench
