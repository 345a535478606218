#include "cells/spice_writer.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::cells {

namespace {

struct Emitter {
  std::ostream& os;
  const Cell& cell;
  const SpiceWriterOptions& opts;
  int next_node = 0;
  int next_device = 0;

  std::string signal_node(int signal) const {
    if (signal < cell.num_inputs()) return std::string(1, static_cast<char>('A' + signal));
    if (signal == cell.gnd_signal()) return "VSS";
    if (signal == cell.vdd_signal()) return "VDD";
    return node_name('n', signal);
  }

  std::string fresh_node() { return node_name('x', next_node++); }

  // Appended rather than `"n" + std::to_string(i)`: GCC 12 at -O3 reports a
  // false -Wrestrict overlap in the inlined insert of that operator+.
  static std::string node_name(char prefix, int index) {
    std::string name(1, prefix);
    name += std::to_string(index);
    return name;
  }

  void device_line(const device::NetworkDevice& d, const std::string& hi,
                   const std::string& lo) {
    // M<id> drain gate source bulk model W= L=
    const bool nmos = d.type == device::DeviceType::kNmos;
    os << "M" << next_device++ << ' ' << (nmos ? hi : lo) << ' '
       << signal_node(d.gate_signal) << ' ' << (nmos ? lo : hi) << ' '
       << (nmos ? "VSS" : "VDD") << ' ' << (nmos ? opts.nmos_model : opts.pmos_model)
       << " W=" << d.w_nm * 1e-3 << "u L=" << opts.l_nm * 1e-3 << "u\n";
  }

  // Emits the network between absolute nodes `hi` (higher potential side)
  // and `lo`.
  void emit(const device::Network& n, const std::string& hi, const std::string& lo) {
    switch (n.kind()) {
      case device::Network::Kind::kDevice:
        device_line(n.dev(), hi, lo);
        return;
      case device::Network::Kind::kParallel:
        for (const auto& c : n.children()) emit(c, hi, lo);
        return;
      case device::Network::Kind::kSeries: {
        std::string below = lo;
        for (std::size_t i = 0; i < n.children().size(); ++i) {
          const std::string above =
              i + 1 == n.children().size() ? hi : fresh_node();
          emit(n.children()[i], above, below);
          below = above;
        }
        return;
      }
    }
  }
};

}  // namespace

void write_spice_subckt(const Cell& cell, std::ostream& os, const SpiceWriterOptions& options) {
  os << "* " << cell.name() << ": " << cell.num_devices() << " devices\n";
  os << ".subckt " << cell.name();
  for (int i = 0; i < cell.num_inputs(); ++i) os << ' ' << static_cast<char>('A' + i);
  if (cell.has_primary_output()) os << " OUT";
  os << " VDD VSS\n";

  Emitter e{os, cell, options};
  int next_output = cell.num_inputs() + 2;
  for (const auto& stage : cell.stages()) {
    if (stage.rail_path) {
      e.emit(*stage.rail_path, "VDD", "VSS");
      continue;
    }
    const int out_sig = next_output++;
    const std::string out = e.signal_node(out_sig);
    e.emit(*stage.pdn, out, "VSS");
    e.emit(*stage.pun, "VDD", out);
  }
  if (cell.has_primary_output()) {
    // Alias the primary output's internal node to the OUT pin with a
    // zero-ohm tie (keeps the subckt pin list tool-friendly).
    os << "R0 OUT " << e.signal_node(cell.primary_output_signal()) << " 0\n";
  }
  os << ".ends " << cell.name() << "\n\n";
}

void write_spice_library(const StdCellLibrary& library, std::ostream& os,
                         const SpiceWriterOptions& options) {
  os << "* rgleak virtual 90 nm library — transistor-level leakage view\n";
  os << "* " << library.size() << " cells\n\n";
  for (std::size_t i = 0; i < library.size(); ++i)
    write_spice_subckt(library.cell(i), os, options);
}

void write_spice_library(const StdCellLibrary& library, const std::string& path,
                         const SpiceWriterOptions& options) {
  RGLEAK_FAILPOINT("cells.spice.write");
  util::atomic_write_file(
      path, [&](std::ostream& os) { write_spice_library(library, os, options); });
}

}  // namespace rgleak::cells
