#include "service/admission.h"

#include <array>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace rgleak::service {

namespace {

// The ladder, most expensive first. Admission enters at the requested rung
// and only ever walks down (a cheaper request is never upgraded).
constexpr std::array<const char*, 4> kLadder = {"exact_fft", "exact_direct", "linear",
                                                "integral_polar"};

std::string human_mb(std::uint64_t bytes) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << static_cast<double>(bytes) / (1024.0 * 1024.0) << " MiB";
  return os.str();
}

}  // namespace

Admission admit_estimate(const ResourceGovernor& gov, std::size_t sites,
                         const std::string& method) {
  Admission adm;
  adm.method = method;
  if (gov.mem_budget_bytes == 0) return adm;  // unlimited: run as requested

  std::size_t start = kLadder.size();  // methods off the ladder map to themselves
  for (std::size_t i = 0; i < kLadder.size(); ++i)
    if (method == kLadder[i]) {
      start = i;
      break;
    }
  if (start == kLadder.size()) {
    // integral_rect and friends: constant-memory floor rungs. Check-fit only.
    if (gov.costs.predict_bytes(method, sites) > gov.mem_budget_bytes) {
      std::ostringstream os;
      os << "admission: method '" << method << "' at " << sites << " sites needs "
         << human_mb(gov.costs.predict_bytes(method, sites)) << ", over the "
         << human_mb(gov.mem_budget_bytes) << " memory budget with no cheaper rung";
      throw ResourceError(os.str());
    }
    return adm;
  }

  for (std::size_t i = start; i < kLadder.size(); ++i) {
    if (gov.costs.predict_bytes(kLadder[i], sites) <= gov.mem_budget_bytes) {
      adm.method = kLadder[i];
      if (i != start) {
        std::ostringstream os;
        os << "mem: " << method << "->" << kLadder[i];
        adm.degradation = os.str();
      }
      return adm;
    }
  }
  std::ostringstream os;
  os << "admission: no estimator rung fits at " << sites << " sites: floor '"
     << kLadder.back() << "' needs " << human_mb(gov.costs.predict_bytes(kLadder.back(), sites))
     << ", over the " << human_mb(gov.mem_budget_bytes) << " memory budget";
  throw ResourceError(os.str());
}

Admission admit_mc(const ResourceGovernor& gov, std::size_t sites, std::size_t threads) {
  Admission adm;
  adm.method = "mc";
  adm.threads = threads == 0 ? 1 : threads;
  if (gov.mem_budget_bytes == 0) {
    adm.threads = threads;  // preserve 0 = hardware concurrency
    return adm;
  }

  const std::uint64_t per_worker = gov.costs.predict_bytes("mc", sites);
  std::size_t admitted = adm.threads;
  while (admitted > 1 && per_worker * admitted > gov.mem_budget_bytes) admitted /= 2;
  if (per_worker * admitted > gov.mem_budget_bytes) {
    std::ostringstream os;
    os << "admission: mc at " << sites << " sites needs " << human_mb(per_worker)
       << " even with a single worker, over the " << human_mb(gov.mem_budget_bytes)
       << " memory budget";
    throw ResourceError(os.str());
  }
  if (admitted != adm.threads) {
    std::ostringstream os;
    os << "mem: mc threads " << adm.threads << "->" << admitted;
    adm.degradation = os.str();
  }
  adm.threads = admitted;
  return adm;
}

}  // namespace rgleak::service
