// Process-isolation soak: a batch of 100 jobs under a randomized (but
// deterministically seeded) crash matrix — aborts, segfaults, silent exits,
// allocation failures, foreign throws, and hard hangs — all executed in
// sandboxed children via ExecIsolation::kProcess. The contract under fire:
// the supervisor NEVER dies with a child, every job ends as a structured
// journal record with the right error class, and a batch interrupted
// mid-flight resumes from its journal to the same terminal records as an
// uninterrupted run. The *Isolate* filter runs under TSan (die_after_fork=0)
// via scripts/tsan_check.sh and under ASan (handle_segv=0:handle_abort=0)
// via scripts/asan_check.sh.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/batch_runner.h"
#include "service/journal.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/run_control.h"

namespace rgleak::service {
namespace {

using util::RunControl;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

class FnExecutor : public Executor {
 public:
  using Fn = std::function<JobOutput(const JobSpec&, const util::RunControl*, int)>;
  explicit FnExecutor(Fn fn) : fn_(std::move(fn)) {}
  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog, int degrade) override {
    return fn_(job, watchdog, degrade);
  }

 private:
  Fn fn_;
};

// The synthetic job body every soak child runs: beats (so the stall monitor
// sees cross-process progress), walks through the failpoint site armed from
// the job's "failpoint" parameter, and returns a result derived only from the
// job id — deterministic, so resumed and uninterrupted runs must agree.
JobOutput soak_execute(const JobSpec& job, const util::RunControl* wd) {
  for (int i = 0; i < 4; ++i) wd->beat();
  RGLEAK_FAILPOINT("soak.exec.site");
  JobOutput out;
  out.mean_na = 100.0 + static_cast<double>(std::hash<std::string>{}(job.id) % 1000);
  out.sigma_na = out.mean_na / 64.0;
  out.method = "synthetic";
  return out;
}

// What we injected into a job, so assertions can check the matching outcome.
enum class Fate { kClean, kAbort, kSegv, kExitForeign, kExitParse, kAlloc, kThrow, kHang };

struct SoakJob {
  JobSpec spec;
  Fate fate;
};

// 100 jobs, ~half clean, the rest spread across every crash/failure mode the
// supervisor must contain. Deterministically seeded: the same matrix every
// run, every platform.
std::vector<SoakJob> crash_matrix_manifest() {
  std::mt19937 rng(20260808u);
  // The first eight rolls are pinned, one per fate, so every fate is
  // guaranteed in the matrix no matter how the remaining 92 rolls land.
  const int pinned[] = {0, 50, 65, 78, 84, 89, 94, 99};
  std::vector<SoakJob> jobs;
  for (int i = 0; i < 100; ++i) {
    SoakJob j;
    j.spec.id = "soak-" + std::to_string(i);
    j.spec.kind = "synthetic";
    const int roll = i < 8 ? pinned[i] : static_cast<int>(rng() % 100);
    if (roll < 45) {
      j.fate = Fate::kClean;
    } else if (roll < 60) {
      j.fate = Fate::kAbort;
      j.spec.params["failpoint"] = "soak.exec.site:abort";
    } else if (roll < 75) {
      j.fate = Fate::kSegv;
      j.spec.params["failpoint"] = "soak.exec.site:segv";
    } else if (roll < 82) {
      j.fate = Fate::kExitForeign;  // vanishes with a meaningless exit code
      j.spec.params["failpoint"] = "soak.exec.site:exit:42";
    } else if (roll < 87) {
      j.fate = Fate::kExitParse;  // vanishes with the documented parse exit
      j.spec.params["failpoint"] = "soak.exec.site:exit:3";
    } else if (roll < 92) {
      j.fate = Fate::kAlloc;  // std::bad_alloc: foreign, assumed transient
      j.spec.params["failpoint"] = "soak.exec.site:alloc";
    } else if (roll < 98) {
      j.fate = Fate::kThrow;  // FailpointError: foreign, assumed transient
      j.spec.params["failpoint"] = "soak.exec.site:throw";
    } else {
      j.fate = Fate::kHang;  // wedges until the stall watchdog escalates
      j.spec.params["failpoint"] = "soak.exec.site:delay:1:30000";
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

BatchOptions isolate_options() {
  BatchOptions opts;
  opts.isolate = ExecIsolation::kProcess;
  opts.isolate_grace_s = 0.3;  // hangs are signal-blind; escalate quickly
  opts.workers = 4;
  opts.queue_depth = 8;
  opts.shed_policy = ShedPolicy::kBlock;  // the soak measures containment
  opts.retry.max_attempts = 2;
  opts.retry.backoff.base_ms = 1.0;
  opts.retry.backoff.cap_ms = 5.0;
  opts.stall_timeout_s = 0.5;  // must see cross-process beats, catch hangs
  return opts;
}

TEST(ProcessIsolationSoakIsolate, RandomizedCrashMatrixNeverKillsTheSupervisor) {
  const std::vector<SoakJob> matrix = crash_matrix_manifest();
  std::vector<JobSpec> jobs;
  for (const SoakJob& j : matrix) jobs.push_back(j.spec);

  FnExecutor exec([](const JobSpec& job, const util::RunControl* wd, int) {
    return soak_execute(job, wd);
  });
  Journal journal = Journal::open("");
  const BatchSummary s = run_batch(jobs, exec, journal, isolate_options());

  // Reaching this line IS the headline assertion: 50+ child deaths by signal
  // and the supervisor process is still here. Now the bookkeeping.
  EXPECT_EQ(s.total, 100u);
  EXPECT_EQ(s.accounted(), 100u);
  EXPECT_EQ(s.interrupted, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_FALSE(s.stopped);
  EXPECT_GT(s.crashes, 0u);

  const auto records = journal.records();
  EXPECT_EQ(records.size(), 100u);
  for (const SoakJob& j : matrix) {
    const auto it = records.find(j.spec.id);
    ASSERT_NE(it, records.end()) << j.spec.id << " has no journal record";
    const JobRecord& rec = it->second;
    switch (j.fate) {
      case Fate::kClean:
        EXPECT_EQ(rec.status, JobStatus::kSucceeded) << j.spec.id << ": " << rec.error;
        EXPECT_EQ(rec.method, "synthetic") << j.spec.id;
        EXPECT_GT(rec.beats, 0u) << j.spec.id << ": child heartbeats not journaled";
        break;
      case Fate::kAbort:
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"crash\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        EXPECT_NE(rec.error.find("SIGABRT"), std::string::npos) << j.spec.id << ": " << rec.error;
        EXPECT_EQ(rec.attempts, 2) << j.spec.id << ": crash cap is one retry";
        break;
      case Fate::kSegv:
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"crash\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        EXPECT_NE(rec.error.find("SIGSEGV"), std::string::npos) << j.spec.id << ": " << rec.error;
        EXPECT_EQ(rec.attempts, 2) << j.spec.id << ": crash cap is one retry";
        break;
      case Fate::kExitForeign:
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"crash\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        break;
      case Fate::kExitParse:
        // Exit 3 reconstructs ParseError — permanent, exactly one attempt.
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"parse\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        EXPECT_EQ(rec.attempts, 1) << j.spec.id << ": parse errors must not retry";
        break;
      case Fate::kAlloc:
      case Fate::kThrow:
        // Foreign child exceptions: assumed transient, burn the full budget.
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"internal\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        EXPECT_EQ(rec.attempts, 2) << j.spec.id;
        break;
      case Fate::kHang:
        // The stall watchdog cancels the wedged child across the process
        // boundary; stalls are retryable, and the retry wedges again.
        EXPECT_EQ(rec.status, JobStatus::kFailed) << j.spec.id;
        EXPECT_NE(rec.error.find("\"error\":\"deadline\""), std::string::npos)
            << j.spec.id << ": " << rec.error;
        break;
    }
    if (rec.status == JobStatus::kFailed) {
      EXPECT_NE(rec.error.find("\"error\":"), std::string::npos)
          << j.spec.id << ": unstructured failure '" << rec.error << "'";
    }
  }

  // The crash injections never fired in the supervisor's own registry.
  EXPECT_EQ(util::Failpoints::hits("soak.exec.site"), 0u);
  EXPECT_FALSE(util::Failpoints::any_armed());
}

TEST(ProcessIsolationSoakIsolate, AcceptanceEightJobsWithTwoCrashers) {
  // The PR acceptance scenario: 8 jobs, job 2 segfaults, job 5 aborts; the
  // batch completes partially (exit 7 semantics at the CLI), both crashes are
  // journaled as structured kCrash records naming their signal, and the
  // crashers were retried once each in a fresh child.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) {
    JobSpec j;
    j.id = "job-" + std::to_string(i);
    j.kind = "synthetic";
    if (i == 2) j.params["failpoint"] = "soak.exec.site:segv";
    if (i == 5) j.params["failpoint"] = "soak.exec.site:abort";
    jobs.push_back(std::move(j));
  }
  FnExecutor exec([](const JobSpec& job, const util::RunControl* wd, int) {
    return soak_execute(job, wd);
  });
  const std::string journal_path = temp_path("rgleak_acceptance.journal");
  std::remove(journal_path.c_str());
  BatchOptions opts = isolate_options();
  opts.retry.max_attempts = 3;  // the crash cap must bind first
  BatchSummary s;
  {
    Journal journal = Journal::open(journal_path);
    s = run_batch(jobs, exec, journal, opts);
  }

  EXPECT_EQ(s.succeeded, 6u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.crashes, 4u) << "two crashers x (initial attempt + one retry)";
  EXPECT_TRUE(s.failed > 0 && s.succeeded > 0) << "partial completion is the exit-7 case";

  const Journal reopened = Journal::open(journal_path);
  const auto records = reopened.records();
  ASSERT_EQ(records.size(), 8u);
  EXPECT_NE(records.at("job-2").error.find("SIGSEGV"), std::string::npos)
      << records.at("job-2").error;
  EXPECT_NE(records.at("job-5").error.find("SIGABRT"), std::string::npos)
      << records.at("job-5").error;
  for (const char* id : {"job-2", "job-5"}) {
    const JobRecord& rec = records.at(id);
    EXPECT_EQ(rec.status, JobStatus::kFailed) << id;
    EXPECT_EQ(rec.attempts, 2) << id;
    EXPECT_NE(rec.error.find("\"error\":\"crash\""), std::string::npos) << id << ": " << rec.error;
  }
  for (int i : {0, 1, 3, 4, 6, 7})
    EXPECT_EQ(records.at("job-" + std::to_string(i)).status, JobStatus::kSucceeded);
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".lock").c_str());
}

TEST(ProcessIsolationSoakIsolate, InterruptedBatchResumesToTheSameTerminalJournal) {
  // Crash-only resume under process isolation: stop a batch mid-flight (the
  // supervisor equivalent of being SIGKILLed — the journal is all that
  // survives), then resume from the journal. Terminal records must match an
  // uninterrupted reference run field for field, completed jobs must not
  // re-run (deterministic executor + journal skip), and no record may be
  // duplicated or lost.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 24; ++i) {
    JobSpec j;
    j.id = "res-" + std::to_string(i);
    j.kind = "synthetic";
    if (i % 7 == 3) j.params["failpoint"] = "soak.exec.site:segv";
    jobs.push_back(std::move(j));
  }
  FnExecutor exec([](const JobSpec& job, const util::RunControl* wd, int) {
    // A small real delay so the mid-flight stop lands with jobs still queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return soak_execute(job, wd);
  });

  // Reference: uninterrupted run, memory-only journal.
  std::map<std::string, JobRecord> reference;
  {
    Journal journal = Journal::open("");
    const BatchSummary s = run_batch(jobs, exec, journal, isolate_options());
    EXPECT_EQ(s.accounted(), jobs.size());
    reference = journal.records();
  }

  const std::string journal_path = temp_path("rgleak_isolate_resume.journal");
  std::remove(journal_path.c_str());

  // Phase 1: interrupt mid-flight.
  std::set<std::string> terminal_after_stop;
  {
    Journal journal = Journal::open(journal_path);
    RunControl run;
    BatchOptions opts = isolate_options();
    opts.workers = 2;
    opts.run = &run;
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      run.request_stop();
    });
    const BatchSummary s = run_batch(jobs, exec, journal, opts);
    stopper.join();
    EXPECT_EQ(s.accounted(), jobs.size());
    EXPECT_EQ(s.succeeded + s.failed, journal.size());
    for (const auto& [id, rec] : journal.records()) terminal_after_stop.insert(id);
  }

  // Phase 2: resume. Terminal jobs are skipped, the rest run to terminal.
  {
    Journal journal = Journal::open(journal_path);
    EXPECT_EQ(journal.size(), terminal_after_stop.size()) << "reopen must be lossless";
    const BatchSummary s = run_batch(jobs, exec, journal, isolate_options());
    EXPECT_EQ(s.accounted(), jobs.size());
    EXPECT_EQ(s.skipped, terminal_after_stop.size());
    EXPECT_FALSE(s.stopped);
  }

  const Journal final_journal = Journal::open(journal_path);
  const auto records = final_journal.records();
  ASSERT_EQ(records.size(), jobs.size());
  for (const JobSpec& job : jobs) {
    const auto it = records.find(job.id);
    ASSERT_NE(it, records.end()) << job.id;
    const auto ref = reference.find(job.id);
    ASSERT_NE(ref, reference.end()) << job.id;
    EXPECT_EQ(it->second.status, ref->second.status) << job.id;
    EXPECT_EQ(it->second.attempts, ref->second.attempts) << job.id;
    EXPECT_EQ(it->second.mean_na, ref->second.mean_na) << job.id;
    EXPECT_EQ(it->second.sigma_na, ref->second.sigma_na) << job.id;
    EXPECT_EQ(it->second.method, ref->second.method) << job.id;
    if (ref->second.status == JobStatus::kFailed) {
      EXPECT_NE(it->second.error.find("\"error\":\"crash\""), std::string::npos)
          << job.id << ": " << it->second.error;
    }
  }
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".lock").c_str());
}

}  // namespace
}  // namespace rgleak::service
