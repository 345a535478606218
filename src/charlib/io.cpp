#include "charlib/io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::charlib {

namespace {
constexpr const char* kMagic = "rgchar-v1";

std::string correlation_family(const process::SpatialCorrelation& corr) {
  return corr.name();
}

}  // namespace

void save_characterization(const CharacterizedLibrary& chars, std::ostream& os) {
  const auto& p = chars.process();
  os << kMagic << "\n";
  os << std::setprecision(17);
  const std::string family = correlation_family(p.wid_correlation());
  // Only factory-constructible families round-trip (powerexp carries a second
  // parameter the format does not store).
  try {
    (void)process::make_correlation(family, 1.0);
  } catch (const ConfigError&) {
    throw ContractViolation("correlation family '" + family + "' is not serializable");
  }
  os << "process " << p.length().mean_nm << ' ' << p.length().sigma_d2d_nm << ' '
     << p.length().sigma_wid_nm << ' ' << p.vt().sigma_v << ' ' << family << ' '
     << process::correlation_scale_nm(p.wid_correlation()) << ' ' << p.anisotropy().scale_x << ' '
     << p.anisotropy().scale_y << "\n";
  os << "cells " << chars.size() << "\n";
  for (std::size_t ci = 0; ci < chars.size(); ++ci) {
    const CellChar& cc = chars.cell(ci);
    os << "cell " << chars.library().cell(ci).name() << ' ' << cc.states.size() << "\n";
    for (const StateChar& s : cc.states) {
      os << "state " << s.mean_na << ' ' << s.sigma_na;
      if (s.model) os << " model " << s.model->a << ' ' << s.model->b << ' ' << s.model->c;
      os << "\n";
    }
  }
}

void save_characterization(const CharacterizedLibrary& chars, const std::string& path) {
  RGLEAK_FAILPOINT("charlib.io.write");
  // Atomic write (temp file + rename): an interrupt or failure mid-write
  // never leaves a truncated characterization behind.
  util::atomic_write_file(path,
                          [&](std::ostream& os) { save_characterization(chars, os); });
}

CharacterizedLibrary load_characterization(const cells::StdCellLibrary& library, std::istream& is,
                                           const std::string& source_name) {
  std::size_t line_no = 0;
  std::string line;
  const auto next_line = [&](const char* what) {
    RGLEAK_FAILPOINT("charlib.io.read_line");
    if (!std::getline(is, line)) {
      if (is.bad()) throw IoError("read failed: " + source_name);
      throw ParseError(source_name, line_no + 1, 0,
                       std::string("unexpected end of file, expected ") + what);
    }
    ++line_no;
  };
  const auto fail = [&](const std::string& msg, const std::string& token = "") -> void {
    throw ParseError(source_name, line_no, 0, msg, token);
  };

  next_line("the rgchar-v1 header");
  if (line != kMagic) fail("bad .rgchar header, expected 'rgchar-v1'", line);

  next_line("a process line");
  std::istringstream ps(line);
  std::string tag, family;
  process::LengthVariation len;
  process::VtVariation vt;
  double scale = 0.0;
  ps >> tag >> len.mean_nm >> len.sigma_d2d_nm >> len.sigma_wid_nm >> vt.sigma_v >> family >>
      scale;
  if (!ps || tag != "process") fail("bad process line", line);
  process::CorrelationAnisotropy aniso;
  // Optional trailing anisotropy pair (older files omit it).
  if (!(ps >> aniso.scale_x >> aniso.scale_y)) aniso = {};
  std::shared_ptr<const process::SpatialCorrelation> corr;
  try {
    corr = process::make_correlation(family, scale);
  } catch (const ConfigError&) {
    fail("unknown correlation family '" + family + "'", family);
  }
  process::ProcessVariation process(len, vt, std::move(corr), aniso);
  const double var_l = len.sigma_total_nm() * len.sigma_total_nm();

  next_line("a cells line");
  std::istringstream cs(line);
  std::size_t count = 0;
  cs >> tag >> count;
  if (!cs || tag != "cells") fail("bad cells line, expected 'cells <count>'", line);
  if (count != library.size())
    fail("cell count " + std::to_string(count) + " does not match the target library (" +
         std::to_string(library.size()) + " cells)");

  std::vector<CellChar> cells(library.size());
  std::vector<bool> filled(library.size(), false);
  for (std::size_t i = 0; i < count; ++i) {
    next_line("a cell line");
    std::istringstream hs(line);
    std::string name;
    std::size_t states = 0;
    hs >> tag >> name >> states;
    if (!hs || tag != "cell") fail("bad cell line, expected 'cell <name> <states>'", line);
    if (!library.contains(name)) fail("unknown cell '" + name + "'", name);
    const std::size_t idx = library.index_of(name);
    if (filled[idx]) fail("duplicate cell entry '" + name + "'", name);
    if (states != library.cell(idx).num_states())
      fail("state count mismatch for cell " + name + " (file has " + std::to_string(states) +
               ", library expects " + std::to_string(library.cell(idx).num_states()) + ")",
           name);
    CellChar cc;
    cc.states.resize(states);
    for (std::size_t s = 0; s < states; ++s) {
      next_line("a state line");
      std::istringstream ss(line);
      StateChar st;
      ss >> tag >> st.mean_na >> st.sigma_na;
      if (!ss || tag != "state") fail("bad state line, expected 'state <mean> <sigma>'", line);
      std::string model_tag;
      if (ss >> model_tag) {
        if (model_tag != "model") fail("unexpected token on state line", model_tag);
        math::LogQuadraticModel m;
        ss >> m.a >> m.b >> m.c;
        if (!ss) fail("bad model triplet, expected 'model <a> <b> <c>'", line);
        // The library expands every model into its Hermite series at load,
        // which needs the leakage's first two moments at the file's sigma.
        if (!(m.a > 0.0)) fail("bad model triplet, needs a > 0", line);
        if (!(1.0 - 4.0 * m.c * var_l > 0.0))
          fail("bad model triplet, its second moment diverges at the file's length sigma "
               "(needs 1 - 4 c sigma^2 > 0)",
               line);
        st.model = m;
      }
      cc.states[s] = st;
    }
    cells[idx] = std::move(cc);
    filled[idx] = true;
  }
  return CharacterizedLibrary(&library, std::move(process), std::move(cells));
}

CharacterizedLibrary load_characterization(const cells::StdCellLibrary& library,
                                           const std::string& path) {
  RGLEAK_FAILPOINT("charlib.io.open");
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  return load_characterization(library, is, path);
}

}  // namespace rgleak::charlib
