#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "math/fft.h"
#include "util/error.h"
#include "util/format.h"

namespace rgleak::core {

double CostModel::Law::basis_value(std::size_t sites) const {
  const double n = static_cast<double>(sites);
  switch (basis) {
    case Basis::kConstant: return 1.0;
    case Basis::kLinear: return n;
    case Basis::kNLogN: return n * std::log2(std::max(2.0, n));
    case Basis::kQuadratic: return n * n;
  }
  return 1.0;
}

double CostModel::Law::predict(std::size_t sites) const {
  const double coeff = calibrated_coeff > 0.0 ? calibrated_coeff : default_coeff;
  return coeff * basis_value(sites);
}

void CostModel::Law::calibrate(std::size_t sites, double measured) {
  if (sites == 0 || !(measured >= 0.0)) return;
  const double coeff = measured / basis_value(sites);
  if (coeff > calibrated_coeff) calibrated_coeff = coeff;
}

CostModel CostModel::defaults() {
  // Commodity-core magnitudes. The integral rungs are one radial quadrature
  // each: bench_scaling's BM_IntegralRect/BM_IntegralPolar read 0.05-0.15 ms
  // per call from 8x8 to 2048x2048 sites on a 4-CPU 2 GHz host, and other
  // kernels (spherical, Gaussian, 3:1 anisotropic, 0.5 mm exponential) stay
  // under 0.2 ms, so their 1 ms constant is pessimistic by 5x or more.
  using B = Law::Basis;
  CostModel m;
  m.laws_["exact_direct"] = Law{B::kQuadratic, 5e-5};
  m.laws_["exact_fft"] = Law{B::kNLogN, 5e-3};
  m.laws_["linear"] = Law{B::kLinear, 2e-3};
  m.laws_["integral_rect"] = Law{B::kConstant, 1.0};
  m.laws_["integral_polar"] = Law{B::kConstant, 1.0};
  return m;
}

void CostModel::calibrate_ms(const std::string& method, std::size_t sites, double wall_ms) {
  // Bench records name the exact paths by implementation; fold them onto the
  // rung they predict. The serial direct row is a baseline, not a rung.
  if (method == "direct_serial") return;
  const std::string rung = method == "direct_parallel" ? "exact_direct"
                           : method == "fft"           ? "exact_fft"
                                                       : method;
  const auto it = laws_.find(rung);
  if (it != laws_.end()) it->second.calibrate(sites, wall_ms);
}

double CostModel::predict_ms(const std::string& method, std::size_t sites) const {
  const auto it = laws_.find(method);
  return it == laws_.end() ? std::numeric_limits<double>::infinity() : it->second.predict(sites);
}

std::uint64_t CostModel::exact_direct_bytes(std::size_t gates, std::size_t rows,
                                            std::size_t cols) {
  const std::uint64_t n = gates;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  const std::uint64_t tiles = (n + 63) / 64;
  // type/row/col index vectors + offset-rho grid + tile partials.
  return 3 * n * sizeof(std::size_t) + sites * sizeof(double) + tiles * sizeof(double);
}

std::uint64_t CostModel::exact_fft_bytes(std::size_t rows, std::size_t cols) {
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  // The transform grid (live rows x padded columns, complex) plus four
  // per-offset tables: rho, its running power, and the two order weights
  // that the autocorrelations overwrite.
  return math::FoldedAutocorrelation2D::grid_bytes(rows, cols) + 4 * sites * sizeof(double);
}

std::uint64_t CostModel::mc_embedding_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                            std::size_t rows, std::size_t cols) {
  const std::uint64_t pad = static_cast<std::uint64_t>(padded_rows) * padded_cols;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  // Column-major sqrt-eigenvalue table, realized covariance, and the column
  // and row FFT plans.
  return pad * sizeof(double) + sites * sizeof(double) + math::FftPlan::table_bytes(padded_rows) +
         math::FftPlan::table_bytes(padded_cols);
}

std::uint64_t CostModel::mc_worker_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                         std::size_t rows, std::size_t cols, std::size_t gates) {
  const std::uint64_t pad = static_cast<std::uint64_t>(padded_rows) * padded_cols;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  // The sampler copy's spare-field cache; FieldWorkspace: column-pass
  // scratch over the padded grid + row-pass buffer over the kept rows;
  // McWorkspace: wid field + per-gate table ids.
  const std::uint64_t field_ws =
      (pad + static_cast<std::uint64_t>(rows) * padded_cols) * sizeof(std::complex<double>);
  return sites * sizeof(double) + field_ws + sites * sizeof(double) +
         gates * sizeof(std::uint32_t);
}

namespace {

/// One record object of a bench file, located for error messages. A minimal
/// scanner for the flat one-record-per-object shape the benches write; not a
/// general JSON parser.
struct BenchRecord {
  const std::string& text;
  const std::string& path;
  std::size_t line;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(path, line, 0, message, text);
  }

  /// Raw value of `key`: a quoted string's contents, or the bare token up to
  /// the next ',', '}' or whitespace. Empty optional when the key is absent.
  std::optional<std::string> raw(const std::string& key) const {
    const auto k = text.find("\"" + key + "\"");
    if (k == std::string::npos) return std::nullopt;
    const auto colon = text.find(':', k);
    const auto v =
        colon == std::string::npos ? colon : text.find_first_not_of(" \t\r\n", colon + 1);
    if (v == std::string::npos) fail("\"" + key + "\" has no value");
    if (text[v] == '"') {
      const auto q = text.find('"', v + 1);
      if (q == std::string::npos) fail("unterminated string in \"" + key + "\"");
      return text.substr(v + 1, q - v - 1);
    }
    return text.substr(v, text.find_first_of(",} \t\r\n", v) - v);
  }

  /// A finite, non-negative number; with `count_limit` > 0 also an integer
  /// below that limit. Empty optional when the key is absent.
  std::optional<double> number(const std::string& key, double count_limit = 0.0) const {
    const std::optional<std::string> token = raw(key);
    if (!token) return std::nullopt;
    double v = 0.0;
    if (!util::parse_double(*token, v)) fail("\"" + key + "\" is not a number: " + *token);
    if (!std::isfinite(v) || v < 0.0) fail("\"" + key + "\" must be finite and >= 0: " + *token);
    if (count_limit > 0.0 && (v != std::floor(v) || v >= count_limit))
      fail("\"" + key + "\" must be a whole number in range: " + *token);
    return v;
  }
};

}  // namespace

CostModel CostModel::from_bench_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) throw IoError("read failed: " + path);
  const std::string text = buffer.str();

  CostModel model = defaults();
  const auto records = text.find("\"records\"");
  if (records == std::string::npos)
    throw ParseError(path, 1, 0, "bench record has no \"records\" array");
  const double sites_limit = std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  std::size_t pos = records;
  std::size_t parsed = 0;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const auto line =
        1 + static_cast<std::size_t>(std::count(text.begin(), text.begin() + pos, '\n'));
    const auto close = text.find('}', pos);
    if (close == std::string::npos) throw ParseError(path, line, 0, "unterminated record object");
    const std::string obj = text.substr(pos, close - pos + 1);
    const BenchRecord rec{obj, path, line};
    const std::optional<std::string> method = rec.raw("method");
    const std::optional<double> sites = rec.number("sites", sites_limit);
    const std::optional<double> wall_ms = rec.number("wall_ms");
    if (!method || !sites || !wall_ms)
      rec.fail("record needs \"sites\", \"method\", and \"wall_ms\" fields");
    model.calibrate_ms(*method, static_cast<std::size_t>(*sites), *wall_ms);
    ++parsed;
    pos = close + 1;
  }
  if (parsed == 0) throw ParseError(path, 1, 0, "bench record holds no records");
  return model;
}

}  // namespace rgleak::core
