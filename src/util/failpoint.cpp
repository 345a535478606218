#include "util/failpoint.h"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/format.h"

namespace rgleak::util {

namespace {

struct SiteState {
  FailpointAction action = FailpointAction::kThrow;
  std::size_t remaining = 0;  // executions left to fire on
  unsigned delay_ms = 0;
  int exit_code = 1;  // for kExit
  std::size_t hits = 0;
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, SiteState>& registry() {
  static std::map<std::string, SiteState> r;
  return r;
}

// Decides under the lock whether `site` fires, updates counters, and returns
// the action to take outside the lock (sleeping or throwing while holding the
// registry mutex would serialize unrelated sites).
struct Decision {
  bool fire = false;
  FailpointAction action = FailpointAction::kThrow;
  unsigned delay_ms = 0;
  int exit_code = 1;
};

Decision decide(const char* site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(site);
  if (it == registry().end() || it->second.remaining == 0) return {};
  SiteState& s = it->second;
  if (s.remaining != std::numeric_limits<std::size_t>::max()) {
    --s.remaining;
    // Exhausted sites drop out of the fast-path count so production code goes
    // back to the single-load path once the injection burst is over.
    if (s.remaining == 0) Failpoints::armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  ++s.hits;
  return {true, s.action, s.delay_ms, s.exit_code};
}

// Dies the way the armed crash action asks. Separate from the registry lock:
// crashing while holding it would be its own bug.
[[noreturn]] void crash(FailpointAction action, int exit_code, const char* site) {
  std::fprintf(stderr, "failpoint '%s': injected %s\n", site,
               action == FailpointAction::kAbort  ? "abort"
               : action == FailpointAction::kSegv ? "segv"
                                                  : "exit");
  std::fflush(stderr);
  if (action == FailpointAction::kAbort) std::abort();
  if (action == FailpointAction::kSegv) {
    // A real SIGSEGV, not raise(), so the kernel path is exercised: a store
    // to a page mapped without access. (A store through a null pointer would
    // be undefined behaviour, which UBSan reports instead of faulting.)
    void* page = mmap(nullptr, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)), PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (page != MAP_FAILED) *static_cast<volatile int*>(page) = 42;
    std::abort();  // not reached unless the mapping failed; keeps [[noreturn]] honest
  }
  std::_Exit(exit_code);
}

}  // namespace

void Failpoints::arm(const std::string& site, FailpointAction action, std::size_t count,
                     unsigned delay_ms, int exit_code) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  SiteState& s = registry()[site];
  const bool was_live = s.remaining > 0;
  s = SiteState{action, count, delay_ms, exit_code, 0};
  if (!was_live && count > 0) armed_count.fetch_add(1, std::memory_order_relaxed);
}

void Failpoints::arm_specs(const std::string& specs) {
  std::istringstream ss(specs);
  std::string spec;
  while (std::getline(ss, spec)) {
    if (spec.empty()) continue;
    std::vector<std::string> parts;
    std::istringstream fields(spec);
    std::string field;
    while (std::getline(fields, field, ':')) parts.push_back(field);
    if (parts.size() < 2 || parts[0].empty())
      throw ConfigError("bad failpoint spec '" + spec +
                        "', expected SITE:ACTION[:COUNT[:DELAY_MS]] or SITE:exit:CODE[:COUNT]");
    const auto parse_field = [&](const std::string& tok, const char* what) -> long long {
      long long v = 0;
      if (!parse_int(tok, v))
        throw ConfigError(std::string("failpoint spec '") + spec + "': " + what +
                          " expects an integer, got '" + tok + "'");
      return v;
    };
    std::size_t count = SIZE_MAX;
    unsigned delay_ms = 0;
    int exit_code = 1;
    FailpointAction action;
    if (parts[1] == "exit") {
      // SITE:exit:CODE[:COUNT] — the third field is the exit code.
      if (parts.size() < 3 || parts.size() > 4)
        throw ConfigError("bad failpoint spec '" + spec + "', expected SITE:exit:CODE[:COUNT]");
      action = FailpointAction::kExit;
      exit_code = static_cast<int>(parse_field(parts[2], "exit code"));
      if (parts.size() == 4) {
        const long long c = parse_field(parts[3], "count");
        if (c < 0) throw ConfigError("failpoint spec '" + spec + "': count must be non-negative");
        count = static_cast<std::size_t>(c);
      }
    } else {
      if (parts.size() > 4)
        throw ConfigError("bad failpoint spec '" + spec +
                          "', expected SITE:ACTION[:COUNT[:DELAY_MS]]");
      if (parts[1] == "throw") action = FailpointAction::kThrow;
      else if (parts[1] == "nan") action = FailpointAction::kNan;
      else if (parts[1] == "delay") action = FailpointAction::kDelay;
      else if (parts[1] == "alloc") action = FailpointAction::kAlloc;
      else if (parts[1] == "abort") action = FailpointAction::kAbort;
      else if (parts[1] == "segv") action = FailpointAction::kSegv;
      else
        throw ConfigError("unknown failpoint action '" + parts[1] + "' in '" + spec +
                          "' (expected throw, nan, delay, alloc, abort, segv, or exit)");
      if (parts.size() >= 3) {
        const long long c = parse_field(parts[2], "count");
        if (c < 0) throw ConfigError("failpoint spec '" + spec + "': count must be non-negative");
        count = static_cast<std::size_t>(c);
      }
      if (parts.size() >= 4) {
        const long long d = parse_field(parts[3], "delay_ms");
        if (d < 0) throw ConfigError("failpoint spec '" + spec + "': delay_ms must be non-negative");
        delay_ms = static_cast<unsigned>(d);
      }
    }
    arm(parts[0], action, count, delay_ms, exit_code);
  }
}

std::unique_lock<std::mutex> Failpoints::hold_for_fork() {
  return std::unique_lock<std::mutex>(registry_mutex());
}

void Failpoints::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(site);
  if (it == registry().end()) return;
  if (it->second.remaining > 0) armed_count.fetch_sub(1, std::memory_order_relaxed);
  registry().erase(it);
}

void Failpoints::disarm_all() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& [name, state] : registry())
    if (state.remaining > 0) armed_count.fetch_sub(1, std::memory_order_relaxed);
  registry().clear();
}

std::size_t Failpoints::hits(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.hits;
}

void Failpoints::hit(const char* site) {
  const Decision d = decide(site);
  if (!d.fire) return;
  switch (d.action) {
    case FailpointAction::kThrow:
      throw FailpointError(site);
    case FailpointAction::kAlloc:
      throw std::bad_alloc();
    case FailpointAction::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
      return;
    case FailpointAction::kNan:
      return;  // only meaningful at RGLEAK_FAILPOINT_DOUBLE sites
    case FailpointAction::kAbort:
    case FailpointAction::kSegv:
    case FailpointAction::kExit:
      crash(d.action, d.exit_code, site);
  }
}

double Failpoints::corrupt(const char* site, double value) {
  const Decision d = decide(site);
  if (!d.fire) return value;
  switch (d.action) {
    case FailpointAction::kNan:
      return std::numeric_limits<double>::quiet_NaN();
    case FailpointAction::kThrow:
      throw FailpointError(site);
    case FailpointAction::kAlloc:
      throw std::bad_alloc();
    case FailpointAction::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
      return value;
    case FailpointAction::kAbort:
    case FailpointAction::kSegv:
    case FailpointAction::kExit:
      crash(d.action, d.exit_code, site);
  }
  return value;
}

}  // namespace rgleak::util
