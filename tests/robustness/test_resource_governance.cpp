// Resource governance end to end: a 64-job mixed batch under memory budgets
// set on the arena formulas of its fixtures (core/cost_model.h) completes
// with zero crashes, walks the admission ladder deterministically, and
// refuses an MC job that cannot fit one worker as a config error, once; the
// ladder's whole trail reaches the journal; injected std::bad_alloc at every
// charged arena surfaces as a located, retryable resource failure the batch
// recovers from.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "charlib/io.h"
#include "core/cost_model.h"
#include "math/rng.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "netlist/random_circuit.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "service/journal.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"

namespace rgleak::service {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;
using util::FailpointAction;
using util::MemoryBudget;
using util::ScopedFailpoint;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

netlist::Netlist gov_netlist() {
  netlist::UsageHistogram usage;
  usage.alphas.assign(mini_library().size(), 0.0);
  usage.alphas[0] = 0.5;
  usage.alphas[1] = 0.3;
  usage.alphas[2] = 0.2;
  math::Rng gen(97);
  return generate_random_circuit(mini_library(), usage, 64, gen);
}

struct GovInputs {
  std::string lib_path = temp_path("rgleak_gov_lib.rgchar");
  std::string netlist_path = temp_path("rgleak_gov_netlist.rgnl");
  netlist::Netlist nl = gov_netlist();
  /// What every netlist and mc job builds: 64 gates on an 8x8 grid.
  placement::Placement pl{&nl, placement::Floorplan::for_gate_count(64)};

  GovInputs() {
    charlib::save_characterization(mini_chars_analytic(), lib_path);
    netlist::save_netlist(nl, netlist_path);
  }
};

const GovInputs& inputs() {
  static const GovInputs in;
  return in;
}

// The prices admission puts on the fixture's jobs, from the arena formulas.
std::uint64_t fft_bytes() { return core::CostModel::exact_fft_bytes(8, 8); }
std::uint64_t direct_bytes() { return core::CostModel::exact_direct_bytes(64, 8, 8); }
std::uint64_t mc_bytes(std::size_t threads) {
  static const mc::McEmbedding embedding =
      mc::FullChipMonteCarlo::choose_embedding(inputs().pl, mini_chars_analytic(), 0.5, 1);
  return mc::FullChipMonteCarlo::arena_bytes(inputs().pl, embedding, 10, threads);
}

// Restores the process-wide budget when a test exits, so governance tests
// cannot leak a limit into unrelated suites.
struct ProcessLimitGuard {
  ~ProcessLimitGuard() { MemoryBudget::process().set_limit(0); }
};

// 64 jobs: 16 estimates, 16 linear netlists, 8 exact-FFT, 8 exact-direct,
// 16 Monte Carlo of 10 trials on 4 workers. Fixed ids and parameters: the
// governed outcome must be reproducible record for record.
std::vector<JobSpec> mixed_manifest() {
  std::ostringstream ms;
  int n = 0;
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-est\",\"kind\":\"estimate\",\"lib\":\"" << inputs().lib_path
       << "\",\"gates\":" << (200 + 20 * i)
       << ",\"die_um\":\"20x20\",\"usage\":\"INV_X1:3,NAND2_X1:2,NOR2_X1:1\",\"p\":0.5}\n";
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-lin\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path << "\"}\n";
  for (int i = 0; i < 8; ++i)
    ms << "{\"id\":\"job-" << n++ << "-fft\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path
       << "\",\"exact\":true,\"exact_method\":\"fft\",\"threads\":2}\n";
  for (int i = 0; i < 8; ++i)
    ms << "{\"id\":\"job-" << n++ << "-dir\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path
       << "\",\"exact\":true,\"exact_method\":\"direct\"}\n";
  for (int i = 0; i < 16; ++i)
    ms << "{\"id\":\"job-" << n++ << "-mc\",\"kind\":\"mc\",\"lib\":\"" << inputs().lib_path
       << "\",\"netlist\":\"" << inputs().netlist_path
       << "\",\"trials\":10,\"threads\":4,\"seed\":" << (100 + i) << "}\n";
  std::istringstream is(ms.str());
  return parse_manifest(is, "governed.jsonl");
}

BatchOptions gov_options() {
  BatchOptions opts;
  // Asserts on in-parent state (MemoryBudget::process() peaks, failpoint hit
  // counters): pin in-process even under the CI RGLEAK_ISOLATE override.
  opts.isolate = ExecIsolation::kInProcess;
  opts.workers = 4;
  opts.retry.max_attempts = 2;
  opts.retry.backoff.base_ms = 1.0;
  opts.retry.backoff.cap_ms = 5.0;
  opts.job_deadline_s = 30.0;
  return opts;
}

// Runs `jobs` with each job admitted against `budget` bytes. Admission prices
// one job at a time, and an admitted job reserves at most `budget`; the
// process-wide limit is shared by the batch's workers, so it is set to
// workers x budget here. At `budget` itself, jobs running side by side could
// trip the engines' backstop reservations at timing-dependent moments, and no
// replay of the batch could be deterministic. (`rgleak batch` sets both to
// --mem-budget: there the reservation is the enforcing ceiling.)
std::map<std::string, JobRecord> run_governed(const std::vector<JobSpec>& jobs,
                                              std::uint64_t budget, BatchSummary* out_summary) {
  const BatchOptions opts = gov_options();
  MemoryBudget::process().set_limit(budget * opts.workers);
  JobRunner runner(mini_library());
  runner.set_mem_budget(budget);
  Journal journal = Journal::open("");
  const BatchSummary s = run_batch(jobs, runner, journal, opts);
  if (out_summary != nullptr) *out_summary = s;
  return journal.records();
}

TEST(ResourceGovernance, TightBudgetBatchCompletesWithTypedOutcomes) {
  const ProcessLimitGuard guard;
  const std::vector<JobSpec> jobs = mixed_manifest();
  ASSERT_EQ(jobs.size(), 64u);

  // Reference pass: unconstrained, tracking the peak charged bytes.
  MemoryBudget::process().set_limit(0);
  MemoryBudget::process().reset_peak();
  BatchSummary unconstrained;
  const auto reference = run_governed(jobs, 0, &unconstrained);
  EXPECT_EQ(unconstrained.succeeded, 64u) << "unconstrained mixed batch must be clean";
  EXPECT_GE(MemoryBudget::process().peak(), mc_bytes(4))
      << "a 4-worker MC job charged less than its arenas; governance would be vacuous";

  // Governed pass with room for one MC worker but not two: every MC job is
  // admitted at one worker, and the exact arenas (a few KiB) fit as asked.
  ASSERT_LT(fft_bytes(), mc_bytes(1));
  const std::uint64_t budget = mc_bytes(2) - 1;
  BatchSummary s;
  const auto records = run_governed(jobs, budget, &s);

  EXPECT_EQ(s.total, 64u);
  EXPECT_EQ(s.accounted(), 64u);
  EXPECT_EQ(s.interrupted, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_FALSE(s.stopped);
  EXPECT_EQ(records.size(), 64u);

  std::size_t degraded = 0;
  for (const auto& [id, rec] : records) {
    if (rec.status == JobStatus::kFailed) {
      // The only legal failure under a memory budget is the typed one.
      EXPECT_NE(rec.error.find("\"error\":\"resource\""), std::string::npos)
          << id << ": " << rec.error;
    }
    if (!rec.degradation.empty()) {
      ++degraded;
      EXPECT_EQ(rec.degradation.rfind("mem: ", 0), 0u) << id << ": " << rec.degradation;
      EXPECT_EQ(rec.status, JobStatus::kSucceeded)
          << id << ": a degraded admission that still failed";
    }
    if (id.find("-mc") != std::string::npos) {
      EXPECT_EQ(rec.degradation, "mem: mc threads 4->1") << id;
    }
  }
  EXPECT_GT(degraded + s.failed, 0u) << "quarter budget exerted no pressure at all";

  // Deterministic ladder: the same budget walks every job to the same rung.
  const auto replay = run_governed(jobs, budget, nullptr);
  ASSERT_EQ(replay.size(), records.size());
  for (const auto& [id, rec] : records) {
    const JobRecord& again = replay.at(id);
    EXPECT_EQ(again.status, rec.status) << id;
    EXPECT_EQ(again.method, rec.method) << id;
    EXPECT_EQ(again.degradation, rec.degradation) << id;
  }
}

TEST(ResourceGovernance, FftJobsDegradeToDirectUnderTightBudget) {
  const ProcessLimitGuard guard;
  const std::vector<JobSpec> jobs = mixed_manifest();
  // One byte short of the FFT arena: above the direct arena (eq. 17 and the
  // integrals reserve nothing), far below one MC worker.
  ASSERT_LT(direct_bytes(), fft_bytes() - 1);
  const auto records = run_governed(jobs, fft_bytes() - 1, nullptr);
  for (const auto& [id, rec] : records) {
    if (id.find("-fft") != std::string::npos) {
      EXPECT_EQ(rec.status, JobStatus::kSucceeded) << id;
      EXPECT_EQ(rec.degradation, "mem: exact_fft->exact_direct") << id;
    } else if (id.find("-mc") != std::string::npos) {
      // Refused against a budget that cannot grow: a config failure, never
      // retried.
      EXPECT_EQ(rec.status, JobStatus::kFailed) << id << ": one MC worker must not fit";
      EXPECT_NE(rec.error.find("\"error\":\"config\""), std::string::npos) << id;
      EXPECT_EQ(rec.attempts, 1) << id;
    } else {
      EXPECT_EQ(rec.status, JobStatus::kSucceeded) << id << ": " << rec.error;
      EXPECT_TRUE(rec.degradation.empty()) << id << ": " << rec.degradation;
    }
  }
}

// The ladder's whole trail, memory and time notes "; "-joined, reaches the
// journal for the netlist and estimate kinds alike.
TEST(ResourceGovernance, JournalCarriesTheLadderTrail) {
  const ProcessLimitGuard guard;
  std::ostringstream ms;
  ms << "{\"id\":\"fft\",\"kind\":\"netlist\",\"lib\":\"" << inputs().lib_path
     << "\",\"netlist\":\"" << inputs().netlist_path
     << "\",\"exact\":true,\"exact_method\":\"fft\",\"time_budget_s\":1e-6}\n"
     << "{\"id\":\"est\",\"kind\":\"estimate\",\"lib\":\"" << inputs().lib_path
     << "\",\"gates\":400,\"die_um\":\"20x20\",\"usage\":\"INV_X1:3,NAND2_X1:2\","
     << "\"method\":\"linear\",\"time_budget_s\":1e-7}\n";
  std::istringstream is(ms.str());
  const std::vector<JobSpec> jobs = parse_manifest(is, "trail.jsonl");
  const auto expect_floor = [](const JobRecord& rec) {
    EXPECT_EQ(rec.status, JobStatus::kSucceeded) << rec.error;
    EXPECT_EQ(rec.method.rfind("integral_", 0), 0u) << rec.method;
  };

  // Time notes only: every rung above the integral floor is predicted over
  // the microsecond budget.
  auto records = run_governed(jobs, 0, nullptr);
  const JobRecord& fft = records.at("fft");
  expect_floor(fft);
  EXPECT_EQ(fft.degradation.rfind("exact_fft predicted ", 0), 0u) << fft.degradation;
  EXPECT_NE(fft.degradation.find("; exact_direct predicted "), std::string::npos)
      << fft.degradation;
  EXPECT_NE(fft.degradation.find("; linear predicted "), std::string::npos) << fft.degradation;
  const JobRecord& est = records.at("est");
  expect_floor(est);
  EXPECT_EQ(est.degradation.rfind("linear predicted ", 0), 0u) << est.degradation;

  // A budget between the exact arenas puts the memory note first.
  records = run_governed(jobs, fft_bytes() - 1, nullptr);
  expect_floor(records.at("fft"));
  EXPECT_EQ(records.at("fft").degradation.rfind("mem: exact_fft->exact_direct; exact_direct "
                                                "predicted ",
                                                0),
            0u)
      << records.at("fft").degradation;
  EXPECT_NE(records.at("fft").degradation.find("; linear predicted "), std::string::npos)
      << records.at("fft").degradation;
  EXPECT_EQ(records.at("est").degradation.rfind("linear predicted ", 0), 0u)
      << records.at("est").degradation;
}

// One batch job per arena site, with a one-shot bad_alloc injected at that
// site: the first attempt fails as a resource error, the retry succeeds —
// the batch absorbs allocation failure at every charged arena.
TEST(ResourceGovernance, AllocFailpointAtEveryArenaIsTypedAndRetryable) {
  const ProcessLimitGuard guard;
  MemoryBudget::process().set_limit(0);

  struct Case {
    const char* site;
    const char* manifest;
  };
  const std::string mc_job = std::string("{\"id\":\"j\",\"kind\":\"mc\",\"lib\":\"") +
                             inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                             "\",\"trials\":5}";
  const std::string fft_job = std::string("{\"id\":\"j\",\"kind\":\"netlist\",\"lib\":\"") +
                              inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                              "\",\"exact\":true,\"exact_method\":\"fft\"}";
  const std::string dir_job = std::string("{\"id\":\"j\",\"kind\":\"netlist\",\"lib\":\"") +
                              inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                              "\",\"exact\":true,\"exact_method\":\"direct\"}";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mc.workspace.alloc", mc_job},
      {"process.sampler.alloc", mc_job},
      {"math.fft.plan.alloc", mc_job},
      {"core.exact.fft.alloc", fft_job},
      {"core.exact.direct.alloc", dir_job},
  };

  for (const auto& [site, manifest] : cases) {
    SCOPED_TRACE(site);
    std::istringstream is(manifest);
    const std::vector<JobSpec> jobs = parse_manifest(is, "alloc.jsonl");
    const ScopedFailpoint alloc(site, FailpointAction::kAlloc, 1);

    JobRunner runner(mini_library());
    Journal journal = Journal::open("");
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());

    EXPECT_EQ(util::Failpoints::hits(site), 1u) << "failpoint never reached";
    EXPECT_EQ(s.succeeded, 1u) << "retry after the one-shot bad_alloc must succeed";
    EXPECT_EQ(s.retries, 1u);
    const JobRecord rec = journal.records().at("j");
    EXPECT_EQ(rec.attempts, 2);
    EXPECT_EQ(rec.status, JobStatus::kSucceeded);
  }
}

// A persistent allocation failure ends as a terminal typed record that a
// resumed batch honors without re-running the job.
TEST(ResourceGovernance, PersistentAllocFailureIsTerminalAndResumable) {
  const ProcessLimitGuard guard;
  MemoryBudget::process().set_limit(0);
  const std::string manifest = std::string("{\"id\":\"doomed\",\"kind\":\"mc\",\"lib\":\"") +
                               inputs().lib_path + "\",\"netlist\":\"" + inputs().netlist_path +
                               "\",\"trials\":5}";
  std::istringstream is(manifest);
  const std::vector<JobSpec> jobs = parse_manifest(is, "alloc.jsonl");

  const std::string journal_path = temp_path("rgleak_gov_resume.journal");
  std::remove(journal_path.c_str());
  {
    const ScopedFailpoint alloc("mc.workspace.alloc", FailpointAction::kAlloc, SIZE_MAX);
    JobRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());
    EXPECT_EQ(s.failed, 1u);
    const JobRecord rec = journal.records().at("doomed");
    EXPECT_EQ(rec.attempts, 2) << "resource failures are retryable";
    EXPECT_NE(rec.error.find("\"error\":\"resource\""), std::string::npos) << rec.error;
    EXPECT_NE(rec.error.find("worker workspace"), std::string::npos)
        << rec.error << ": resource errors must locate the arena";
  }
  // Resume with the failure injection gone: the terminal record is honored.
  {
    JobRunner runner(mini_library());
    Journal journal = Journal::open(journal_path);
    const BatchSummary s = run_batch(jobs, runner, journal, gov_options());
    EXPECT_EQ(s.skipped, 1u);
    EXPECT_EQ(s.succeeded + s.failed, 0u);
  }
  std::remove(journal_path.c_str());
}

// Admission rejections at the floor surface in the journal exactly like any
// other structured failure — parseable round trip including the new fields.
TEST(ResourceGovernance, JournalRoundTripsDegradationAndBeats) {
  JobRecord rec;
  rec.id = "rt";
  rec.status = JobStatus::kSucceeded;
  rec.attempts = 2;
  rec.mean_na = 12.5;
  rec.sigma_na = 1.25;
  rec.method = "exact_direct";
  rec.degradation = "mem: exact_fft->exact_direct";
  rec.beats = 4242;
  const std::string line = journal_record_json(rec);
  const JobRecord back = parse_journal_record(line, "test", 1);
  EXPECT_EQ(back.degradation, rec.degradation);
  EXPECT_EQ(back.beats, rec.beats);
  EXPECT_EQ(back.method, rec.method);
}

}  // namespace
}  // namespace rgleak::service
