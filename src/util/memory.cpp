#include "util/memory.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.h"

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

namespace rgleak::util {

namespace {

std::string human_bytes(std::uint64_t bytes) {
  // Keep the raw byte count for machines and add a rounded unit for humans.
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  std::ostringstream os;
  os << bytes << " bytes";
  if (u > 0) {
    os.precision(1);
    os << " (" << std::fixed << v << ' ' << units[u] << ')';
  }
  return os.str();
}

// Reads a single numeric value (or "max") from a cgroup limit file. Returns 0
// when the file is absent, unreadable, "max", or implausibly huge (cgroup v1
// reports PAGE_COUNTER_MAX when unlimited).
std::uint64_t read_cgroup_limit(const char* path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string tok;
  in >> tok;
  if (!in || tok.empty() || tok == "max") return 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(tok);
  } catch (...) {
    return 0;
  }
  // Treat anything >= 2^62 as "unlimited sentinel".
  if (value >= (std::uint64_t{1} << 62)) return 0;
  return value;
}

}  // namespace

MemoryBudget& MemoryBudget::process() {
  static MemoryBudget budget;
  return budget;
}

void MemoryBudget::reserve(std::uint64_t bytes, const char* site) {
  if (!try_reserve(bytes, site)) {
    const std::uint64_t lim = limit();
    std::ostringstream os;
    os << site << ": memory reservation of " << human_bytes(bytes)
       << " exceeds budget headroom " << human_bytes(headroom()) << " (limit "
       << human_bytes(lim) << ", reserved " << human_bytes(reserved()) << ")";
    throw ResourceError(os.str());
  }
}

bool MemoryBudget::try_reserve(std::uint64_t bytes, const char* site) {
  (void)site;
  const std::uint64_t lim = limit_.load(std::memory_order_relaxed);
  std::uint64_t cur = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    if (lim != 0 && (bytes > lim || cur > lim - bytes)) return false;
    if (reserved_.compare_exchange_weak(cur, cur + bytes, std::memory_order_relaxed)) break;
  }
  raise_peak(cur + bytes);
  return true;
}

void MemoryBudget::raise_peak(std::uint64_t bytes) {
  std::uint64_t pk = peak_.load(std::memory_order_relaxed);  // racy max loop
  while (bytes > pk && !peak_.compare_exchange_weak(pk, bytes, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::release(std::uint64_t bytes) {
  std::uint64_t cur = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t next = bytes > cur ? 0 : cur - bytes;
    if (reserved_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) return;
  }
}

std::uint64_t MemoryBudget::headroom() const {
  const std::uint64_t lim = limit();
  if (lim == 0) return std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t cur = reserved();
  return cur >= lim ? 0 : lim - cur;
}

MemoryReservation::MemoryReservation(std::uint64_t bytes, const char* site, MemoryBudget* budget)
    : budget_(budget != nullptr ? budget : &MemoryBudget::process()),
      bytes_(bytes),
      site_(site) {
  budget_->reserve(bytes_, site_.c_str());
}

MemoryReservation::MemoryReservation(const MemoryReservation& other)
    : budget_(other.budget_), bytes_(other.bytes_), site_(other.site_) {
  if (budget_ != nullptr && bytes_ > 0) budget_->reserve(bytes_, site_.c_str());
}

MemoryReservation& MemoryReservation::operator=(const MemoryReservation& other) {
  if (this == &other) return *this;
  // Reserve the new charge first so a throwing copy leaves *this intact.
  if (other.budget_ != nullptr && other.bytes_ > 0)
    other.budget_->reserve(other.bytes_, other.site_.c_str());
  release();
  budget_ = other.budget_;
  bytes_ = other.bytes_;
  site_ = other.site_;
  return *this;
}

MemoryReservation::MemoryReservation(MemoryReservation&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_), site_(std::move(other.site_)) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

MemoryReservation& MemoryReservation::operator=(MemoryReservation&& other) noexcept {
  if (this == &other) return *this;
  release();
  budget_ = other.budget_;
  bytes_ = other.bytes_;
  site_ = std::move(other.site_);
  other.budget_ = nullptr;
  other.bytes_ = 0;
  return *this;
}

void MemoryReservation::release() {
  if (budget_ != nullptr && bytes_ > 0) budget_->release(bytes_);
  budget_ = nullptr;
  bytes_ = 0;
}

std::uint64_t detect_memory_limit() {
  std::uint64_t best = 0;
  const auto consider = [&best](std::uint64_t candidate) {
    if (candidate != 0 && (best == 0 || candidate < best)) best = candidate;
  };
  consider(read_cgroup_limit("/sys/fs/cgroup/memory.max"));
  consider(read_cgroup_limit("/sys/fs/cgroup/memory/memory.limit_in_bytes"));
#if !defined(_WIN32)
  struct rlimit rl{};
  if (getrlimit(RLIMIT_AS, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY)
    consider(static_cast<std::uint64_t>(rl.rlim_cur));
#endif
  return best;
}

std::uint64_t parse_memory_size(const std::string& text) {
  if (text.empty()) throw ConfigError("empty memory size");
  std::size_t i = 0;
  if (!std::isdigit(static_cast<unsigned char>(text[0])))
    throw ConfigError("invalid memory size '" + text + "' (expected BYTES or N[kmg])");
  std::uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      throw ConfigError("memory size overflows: '" + text + "'");
    value = value * 10 + digit;
    ++i;
  }
  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[i]))) {
      case 'k': scale = std::uint64_t{1} << 10; break;
      case 'm': scale = std::uint64_t{1} << 20; break;
      case 'g': scale = std::uint64_t{1} << 30; break;
      default:
        throw ConfigError("invalid memory size suffix in '" + text + "' (use k, m, or g)");
    }
    ++i;
    // Accept an optional trailing 'b'/'B' ("512mb").
    if (i < text.size() && std::tolower(static_cast<unsigned char>(text[i])) == 'b') ++i;
  }
  if (i != text.size())
    throw ConfigError("trailing characters in memory size '" + text + "'");
  if (scale != 1 && value > std::numeric_limits<std::uint64_t>::max() / scale)
    throw ConfigError("memory size overflows: '" + text + "'");
  return value * scale;
}

}  // namespace rgleak::util
