#include "math/rng.h"

#include <bit>
#include <cmath>

#include "util/require.h"

namespace rgleak::math {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// One xoshiro256++ step on `s`. Bulk draws run it on a local copy of the
/// engine state so the four words stay in registers across the loop.
inline std::uint64_t xoshiro_next(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang layout, 64-bit
// draws). One u64 supplies layer index, sign, and a 52-bit offset; ~99% of
// samples resolve with a single table compare and multiply, which is what makes
// the MC field fill (10^5 normals per trial draw) cheap. kZigR is the canonical
// base-strip edge for 256 layers: the layer recursion started there closes at
// the density peak.
constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;
constexpr std::uint64_t kZigMantissaMask = (std::uint64_t{1} << 52) - 1;

struct ZigguratTables {
  std::array<std::uint64_t, kZigLayers> k;  // fast-accept thresholds on the 52-bit offset
  std::array<double, kZigLayers> w;         // offset -> x scale per layer
  std::array<double, kZigLayers + 1> f;     // exp(-x_i^2/2), ascending; f[256] = 1

  ZigguratTables() {
    const double fr = std::exp(-0.5 * kZigR * kZigR);
    // Common layer area: base rectangle plus the Gaussian tail beyond kZigR.
    const double v = kZigR * fr + std::sqrt(M_PI / 2.0) * std::erfc(kZigR / std::sqrt(2.0));
    std::array<double, kZigLayers + 1> x{};
    x[0] = v / fr;  // pseudo-width of the base strip (area v at height f(R))
    x[1] = kZigR;
    for (int i = 1; i + 1 < kZigLayers; ++i) {
      const double fi = std::exp(-0.5 * x[i] * x[i]);
      x[i + 1] = std::sqrt(-2.0 * std::log(fi + v / x[i]));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
    for (int i = 0; i < kZigLayers; ++i) {
      const double edge = i == 0 ? kZigR : x[i + 1];
      k[i] = static_cast<std::uint64_t>(edge / x[i] * 0x1.0p52);
      w[i] = x[i] * 0x1.0p-52;
    }
  }
};

const ZigguratTables& zig() {
  static const ZigguratTables tables;
  return tables;
}

/// |x| with the sign of draw bit 8, applied as a sign-bit flip: a `? -x : x`
/// compiles to a branch that mispredicts on half of all draws.
inline double apply_sign(double x, std::uint64_t d) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ ((d >> 8 & 1) << 63));
}

/// The ziggurat fast path: true, with the normal in `x`, when the draw's
/// 52-bit offset falls inside its layer's inscribed box. The offset converts
/// through int64_t (exact below 2^52), a single instruction where the
/// unsigned conversion needs a fix-up sequence.
inline bool zig_fast(const ZigguratTables& t, std::uint64_t d, double& x) {
  const std::size_t idx = d & (kZigLayers - 1);
  const std::uint64_t off = (d >> 9) & kZigMantissaMask;
  if (off >= t.k[idx]) return false;
  x = apply_sign(static_cast<double>(static_cast<std::int64_t>(off)) * t.w[idx], d);
  return true;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng::result_type Rng::operator()() { return xoshiro_next(state_); }

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RGLEAK_REQUIRE(lo <= hi, "uniform(lo,hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RGLEAK_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  if (has_spare_) {
    // Only reachable through set_state() on a state saved by the historical
    // polar-method generator; fresh streams never set the spare.
    has_spare_ = false;
    return spare_;
  }
  const std::uint64_t d = (*this)();
  double x;
  if (zig_fast(zig(), d, x)) return x;  // inside the layer's inscribed box (~99% of draws)
  return normal_slow(d);
}

double Rng::normal_slow(std::uint64_t d) {
  const ZigguratTables& t = zig();
  for (;;) {
    double x;
    if (zig_fast(t, d, x)) return x;  // retry landed in an inscribed box
    const std::size_t idx = d & (kZigLayers - 1);
    const bool neg = (d >> 8) & 1;
    x = static_cast<double>((d >> 9) & kZigMantissaMask) * t.w[idx];
    if (idx == 0) {
      // Base strip beyond kZigR: Marsaglia's exact tail sampler.
      double xx, yy;
      do {
        xx = -std::log(1.0 - uniform()) / kZigR;
        yy = -std::log(1.0 - uniform());
      } while (yy + yy < xx * xx);
      return neg ? -(kZigR + xx) : (kZigR + xx);
    }
    // Wedge between the inscribed box and the curve: exact accept/reject.
    const double y = t.f[idx] + uniform() * (t.f[idx + 1] - t.f[idx]);
    if (y < std::exp(-0.5 * x * x)) return neg ? -x : x;
    d = (*this)();
  }
}

double Rng::normal(double mean, double sigma) {
  RGLEAK_REQUIRE(sigma >= 0.0, "normal() needs sigma >= 0");
  return mean + sigma * normal();
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> out(n);
  normal_fill(out.data(), n);
  return out;
}

void Rng::normal_fill(double* out, std::size_t n) {
  // Identical stream to n calls of normal(); the ziggurat fast path is
  // inlined here so bulk fills (the MC field draw is ~10^5 normals) skip the
  // per-call function and table-guard overhead. The engine state lives in a
  // local for the loop and goes back to state_ only around normal_slow, which
  // draws from the member engine.
  std::size_t i = 0;
  if (has_spare_ && n > 0) {
    has_spare_ = false;
    out[i++] = spare_;
  }
  const ZigguratTables& t = zig();
  std::array<std::uint64_t, 4> s = state_;
  for (; i < n; ++i) {
    const std::uint64_t d = xoshiro_next(s);
    if (zig_fast(t, d, out[i])) continue;
    state_ = s;
    out[i] = normal_slow(d);
    s = state_;
  }
  state_ = s;
}

bool Rng::bernoulli(double p) {
  RGLEAK_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli needs p in [0,1]");
  return uniform() < p;
}

Rng Rng::fork() { return Rng((*this)()); }

Rng::State Rng::state() const {
  State st;
  st.s = state_;
  st.spare_bits = std::bit_cast<std::uint64_t>(spare_);
  st.has_spare = has_spare_;
  return st;
}

void Rng::set_state(const State& st) {
  state_ = st.s;
  spare_ = std::bit_cast<double>(st.spare_bits);
  has_spare_ = st.has_spare;
}

}  // namespace rgleak::math
