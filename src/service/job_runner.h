#pragma once
// Production Executor: adapts manifest jobs onto the library's engines.
//
// Kinds: estimate, netlist, mc, characterize. Their parameters (JSON
// scalars; paths are relative to the process working directory), defaults
// and accepted ranges are tabled in service/params.h, the reader this runner
// and the CLI share.
//
// Unknown kinds and malformed parameters raise ConfigError before any file
// loads (permanent — the job fails with a structured record; the batch keeps
// going). The per-job watchdog is threaded into every engine (estimator run
// controls, MC worker polls, characterizer polls), so a wedged job cancels
// within one chunk.
//
// Retry degradation: on each retryable failure the estimate/netlist kinds
// walk one rung down the PR-3 cost ladder (exact -> linear -> integral), so
// a job that NaN'd or blew its deadline at an expensive rung retries at a
// cheaper one instead of failing the same way again. mc and characterize
// re-run unchanged (their failures are draw- or io-transient).
//
// Characterized libraries and netlists are cached by path across jobs — a
// manifest sweeping 500 operating points of one design loads it once.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "netlist/netlist.h"
#include "service/admission.h"
#include "service/executor.h"

namespace rgleak::service {

class Params;

class JobRunner : public Executor {
 public:
  explicit JobRunner(const cells::StdCellLibrary& library) : library_(&library) {}

  /// Installs memory admission control. `gov` must outlive the runner; pass
  /// nullptr (the default state) to run every job exactly as requested.
  /// Admitted jobs that ran below their requested rung report the walk in
  /// JobOutput::degradation.
  void set_governor(const ResourceGovernor* gov) { governor_ = gov; }

  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog,
                    int degrade) override;

 private:
  const cells::StdCellLibrary* library_;
  const ResourceGovernor* governor_ = nullptr;

  std::mutex cache_mutex_;
  std::map<std::string, charlib::CharacterizedLibrary> chars_cache_;
  std::map<std::string, netlist::Netlist> netlist_cache_;

  const charlib::CharacterizedLibrary& chars_for(const std::string& path);
  /// The "lib" and "netlist" a job names, loaded or cached.
  std::pair<const charlib::CharacterizedLibrary&, const netlist::Netlist&> inputs_for(
      const JobSpec& job, const Params& params);

  JobOutput run_estimate(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_netlist(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_mc(const JobSpec& job, const util::RunControl* watchdog);
  JobOutput run_characterize(const JobSpec& job, const util::RunControl* watchdog);
};

}  // namespace rgleak::service
