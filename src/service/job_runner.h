#pragma once
// Production Executor: adapts manifest jobs onto the library's engines.
//
// Kinds: estimate, netlist, mc, characterize. Their parameters (JSON
// scalars; paths are relative to the process working directory), defaults
// and accepted ranges are tabled in service/params.h, the reader this runner
// and the CLI share.
//
// Unknown kinds, unknown parameters and malformed values raise ConfigError
// before any file loads (permanent — the job fails with a structured record;
// the batch keeps going). The per-job watchdog is threaded into every engine
// (estimator run controls, MC worker polls, characterizer polls), so a wedged
// job cancels within one chunk.
//
// The estimate and netlist kinds answer through the one estimator ladder
// walk (core::walk_ladder) under the job's time_budget_s and the runner's
// memory budget; the walk's trail is journaled as the job's degradation.
// Retry degradation: on each retryable failure they also request one rung
// lower (exact -> linear -> integral), so a job that NaN'd or blew its
// deadline at an expensive rung retries at a cheaper one instead of failing
// the same way again. mc and characterize re-run unchanged (their failures
// are draw- or io-transient).
//
// Characterized libraries and netlists are cached by path across jobs — a
// manifest sweeping 500 operating points of one design loads it once.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "netlist/netlist.h"
#include "service/executor.h"

namespace rgleak::service {

class Params;

class JobRunner : public Executor {
 public:
  explicit JobRunner(const cells::StdCellLibrary& library) : library_(&library) {}

  /// Bytes one job may reserve at once; 0 (the default) = unlimited. Ladder
  /// walks skip a rung whose arena does not fit; an MC run halves its workers
  /// until FullChipMonteCarlo::arena_bytes fits, and fails with a
  /// ResourceError when one worker does not. Either walk is reported in
  /// JobOutput::degradation. Admission prices one job at a time: jobs running
  /// side by side can still overshoot the process-wide MemoryBudget, whose
  /// reservations are then the typed, retryable backstop.
  void set_mem_budget(std::uint64_t bytes) { mem_budget_bytes_ = bytes; }

  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog,
                    int degrade) override;

 private:
  const cells::StdCellLibrary* library_;
  std::uint64_t mem_budget_bytes_ = 0;

  std::mutex cache_mutex_;
  std::map<std::string, charlib::CharacterizedLibrary> chars_cache_;
  std::map<std::string, netlist::Netlist> netlist_cache_;

  const charlib::CharacterizedLibrary& chars_for(const std::string& path);
  /// The "lib" and "netlist" a job names, loaded or cached. Called once
  /// every other parameter is read: a parameter no read asked for is refused
  /// before anything loads.
  std::pair<const charlib::CharacterizedLibrary&, const netlist::Netlist&> inputs_for(
      const JobSpec& job, const Params& params);

  JobOutput run_estimate(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_netlist(const JobSpec& job, const util::RunControl* watchdog, int degrade);
  JobOutput run_mc(const JobSpec& job, const util::RunControl* watchdog);
  JobOutput run_characterize(const JobSpec& job, const util::RunControl* watchdog);
};

}  // namespace rgleak::service
