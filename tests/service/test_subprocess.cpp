// The process-isolation supervisor: a sandboxed child's success and typed
// errors round-trip the pipe byte-faithfully, signal deaths are contained and
// classified as CrashError, heartbeats bridge the process boundary, and a
// blind (non-polling) child is escalated SIGTERM -> SIGKILL on stop. Every
// test here forks a real child (no mocks): these are the contracts the batch
// layer builds crash containment on. TSan runs need die_after_fork=0 and ASan
// runs need handle_segv=0:handle_abort=0 (see scripts/tsan_check.sh and
// scripts/asan_check.sh).

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/batch_runner.h"
#include "service/journal.h"
#include "service/subprocess.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/run_control.h"

namespace rgleak::service {
namespace {

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

JobSpec job(const std::string& id) {
  JobSpec j;
  j.id = id;
  j.kind = "test";
  return j;
}

JobOutput ok_output() {
  JobOutput out;
  out.mean_na = 1.0;
  out.sigma_na = 0.1;
  out.method = "fake";
  return out;
}

JobOutput run_isolated(FnExecutor::Fn fn, const JobSpec& spec,
                       util::RunControl& watchdog,
                       SubprocessOptions opts = SubprocessOptions{}) {
  FnExecutor exec(std::move(fn));
  return run_job_in_subprocess(exec, spec, &watchdog, 0, opts);
}

TEST(SubprocessIsolate, SupportedOnThisPlatform) {
  EXPECT_TRUE(subprocess_supported());
}

TEST(SubprocessIsolate, SuccessRoundTripsEveryOutputField) {
  util::RunControl watchdog;
  const JobOutput out = run_isolated(
      [](const JobSpec&, const util::RunControl*, int) {
        JobOutput o;
        o.mean_na = 1234.5678901234567;  // 17 significant digits must survive
        o.sigma_na = 0.0625;
        o.method = "exact_fft";
        o.degradation = "mem: exact_fft->linear";
        return o;
      },
      job("ok"), watchdog);
  EXPECT_DOUBLE_EQ(out.mean_na, 1234.5678901234567);
  EXPECT_DOUBLE_EQ(out.sigma_na, 0.0625);
  EXPECT_EQ(out.method, "exact_fft");
  EXPECT_EQ(out.degradation, "mem: exact_fft->linear");
}

TEST(SubprocessIsolate, ChildHeartbeatsReachTheParentWatchdog) {
  util::RunControl watchdog;
  const JobOutput out = run_isolated(
      [](const JobSpec&, const util::RunControl* wd, int) {
        for (int i = 0; i < 257; ++i) wd->beat();
        return ok_output();
      },
      job("beats"), watchdog);
  EXPECT_DOUBLE_EQ(out.mean_na, 1.0);
  // The child mirrored its beats into the shared page; the supervisor folded
  // the final count into the parent watchdog on detach.
  EXPECT_GE(watchdog.beats(), 257u);
}

TEST(SubprocessIsolate, TypedErrorRoundTripsWithItsJsonRecord) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          throw NumericalError("variance went negative");
        },
        job("numerical"), watchdog);
    FAIL() << "expected a taxonomy error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumerical);
    EXPECT_NE(e.message().find("variance went negative"), std::string::npos) << e.message();
    const auto* report = dynamic_cast<const ChildReport*>(&e);
    ASSERT_NE(report, nullptr) << "reconstructed error must carry the child's json";
    EXPECT_NE(report->error_json_line().find("\"error\":\"numerical\""), std::string::npos)
        << report->error_json_line();
  }
}

TEST(SubprocessIsolate, ChildMemoryPeakReachesTheSupervisorOnEveryOutcome) {
  // A forked child charges its own copy of the process budget; its result
  // record carries that peak, and the supervisor raises its own peak to it,
  // so `rgleak batch` reports the same peak in both isolation modes.
  util::MemoryBudget& budget = util::MemoryBudget::process();
  util::RunControl watchdog;
  const std::uint64_t held = budget.reserved();  // the child inherits this charge
  budget.reset_peak();
  (void)run_isolated(
      [](const JobSpec&, const util::RunControl*, int) {
        const util::MemoryReservation arena(12856, "test.child.ok");
        return ok_output();
      },
      job("peak-ok"), watchdog);
  EXPECT_EQ(budget.peak(), held + 12856);
  EXPECT_EQ(budget.reserved(), held) << "the child's charge must not leak into the parent";

  budget.reset_peak();
  EXPECT_THROW(run_isolated(
                   [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
                     const util::MemoryReservation arena(40960, "test.child.failed");
                     throw ConfigError("refused after charging");
                   },
                   job("peak-failed"), watchdog),
               Error);
  EXPECT_EQ(budget.peak(), held + 40960);
}

TEST(SubprocessIsolate, ParseErrorLocationSurvivesTheBoundary) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          throw ParseError("netlist.rgnl", 12, 7, "unknown gate", "NAND");
        },
        job("parse"), watchdog);
    FAIL() << "expected a taxonomy error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    const auto* report = dynamic_cast<const ChildReport*>(&e);
    ASSERT_NE(report, nullptr);
    // The journal records the child's own error_json line, so the located
    // fields must be present verbatim.
    EXPECT_NE(report->error_json_line().find("\"source\":\"netlist.rgnl\""), std::string::npos)
        << report->error_json_line();
    EXPECT_NE(report->error_json_line().find("\"line\":12"), std::string::npos)
        << report->error_json_line();
  }
}

TEST(SubprocessIsolate, SegvIsContainedAndClassifiedAsCrash) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          std::raise(SIGSEGV);
          return ok_output();
        },
        job("segv"), watchdog);
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    EXPECT_NE(std::string(e.what()).find("SIGSEGV"), std::string::npos) << e.what();
    EXPECT_EQ(e.code(), ErrorCode::kCrash);
  }
}

TEST(SubprocessIsolate, AbortIsContainedAndCapturesTheStderrTail) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          std::fprintf(stderr, "heap corruption detected in arena 3\n");
          std::fflush(stderr);
          std::abort();
        },
        job("abort"), watchdog);
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SIGABRT"), std::string::npos) << what;
    EXPECT_NE(what.find("heap corruption detected in arena 3"), std::string::npos)
        << "crash message must carry the child's stderr tail: " << what;
  }
}

TEST(SubprocessIsolate, CleanTaxonomyExitWithoutRecordReconstructsTheError) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput { _exit(4); },
        job("exit4"), watchdog);
    FAIL() << "expected a taxonomy error";
  } catch (const Error& e) {
    // Exit 4 is the documented numerical exit code; the supervisor maps it
    // back even though the child vanished before writing its record.
    EXPECT_EQ(e.code(), ErrorCode::kNumerical);
    EXPECT_NE(e.message().find("exited with code 4"), std::string::npos) << e.message();
  }
}

TEST(SubprocessIsolate, ForeignExitCodeWithoutRecordIsCrash) {
  util::RunControl watchdog;
  EXPECT_THROW(run_isolated(
                   [](const JobSpec&, const util::RunControl*, int) -> JobOutput { _exit(42); },
                   job("exit42"), watchdog),
               CrashError);
}

TEST(SubprocessIsolate, SilentSuccessExitIsCrashNotSuccess) {
  util::RunControl watchdog;
  // Exit 0 without a result record must never be trusted as success: there is
  // no estimate to report.
  EXPECT_THROW(run_isolated(
                   [](const JobSpec&, const util::RunControl*, int) -> JobOutput { _exit(0); },
                   job("exit0"), watchdog),
               CrashError);
}

TEST(SubprocessIsolate, ForeignExceptionStaysOutsideTheTaxonomy) {
  util::RunControl watchdog;
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          throw std::runtime_error("weird library exception");
        },
        job("foreign"), watchdog);
    FAIL() << "expected an exception";
  } catch (const Error&) {
    FAIL() << "a foreign child exception must NOT become a taxonomy error: the "
              "batch layer classifies foreign exceptions as transient";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("weird library exception"), std::string::npos)
        << e.what();
    const auto* report = dynamic_cast<const ChildReport*>(&e);
    ASSERT_NE(report, nullptr);
    EXPECT_NE(report->error_json_line().find("\"error\":\"internal\""), std::string::npos)
        << report->error_json_line();
  }
}

TEST(SubprocessIsolate, FailpointParamArmsInTheChildOnly) {
  util::RunControl watchdog;
  JobSpec crashy = job("fp");
  crashy.params["failpoint"] = "test.subproc.site:segv";
  EXPECT_THROW(run_isolated(
                   [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
                     RGLEAK_FAILPOINT("test.subproc.site");
                     return ok_output();
                   },
                   crashy, watchdog),
               CrashError);
  // The site was armed (and fired) in the sandboxed child; the parent's
  // registry must be untouched.
  EXPECT_EQ(util::Failpoints::hits("test.subproc.site"), 0u);
  EXPECT_FALSE(util::Failpoints::any_armed());
}

TEST(SubprocessIsolate, BlindChildIsEscalatedTermThenKillOnDeadline) {
  util::RunControl watchdog;
  watchdog.arm_budget(0.2);
  SubprocessOptions opts;
  opts.term_grace_s = 0.2;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl*, int) -> JobOutput {
          // Signal-blind: never polls the watchdog, ignores the cooperative
          // stop its SIGTERM handler latched. Only SIGKILL ends this.
          for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        },
        job("blind"), watchdog, opts);
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded&) {
    // The supervisor's own kill is attributed to the stop, never to a crash.
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 5.0) << "TERM->KILL escalation took too long";
}

TEST(SubprocessIsolate, CooperativeChildReportsTheDeadlineItself) {
  util::RunControl watchdog;
  watchdog.arm_budget(0.15);
  try {
    run_isolated(
        [](const JobSpec&, const util::RunControl* wd, int) -> JobOutput {
          // Polls like the engines do: the forwarded budget expires inside
          // the child, which reports the typed deadline error as a record.
          while (!wd->should_stop())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw wd->make_error("test.coop");
        },
        job("coop"), watchdog);
    FAIL() << "expected DeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadline);
  }
}

TEST(SubprocessIsolate, BatchCrashCapGivesCrashingJobsFewerRetries) {
  FnExecutor exec([](const JobSpec&, const util::RunControl*, int) -> JobOutput {
    std::raise(SIGSEGV);
    return ok_output();
  });
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.isolate = ExecIsolation::kProcess;
  opts.retry.max_attempts = 4;  // crash cap (1 retry) must bind before this
  opts.retry.backoff.base_ms = 1.0;
  opts.retry.backoff.cap_ms = 2.0;
  const BatchSummary s = run_batch({job("crashy")}, exec, journal, opts);

  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.crashes, 2u) << "initial attempt + exactly one crash retry";
  const JobRecord rec = journal.records().at("crashy");
  EXPECT_EQ(rec.status, JobStatus::kFailed);
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_NE(rec.error.find("\"error\":\"crash\""), std::string::npos) << rec.error;
  EXPECT_NE(rec.error.find("SIGSEGV"), std::string::npos) << rec.error;
}

TEST(SubprocessIsolate, StallMonitorSeesCrossProcessHeartbeats) {
  // A slow but beating child must NOT be flagged as stalled even though all
  // its progress happens on the far side of the process boundary.
  FnExecutor exec([](const JobSpec&, const util::RunControl* wd, int) -> JobOutput {
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(450);
    while (std::chrono::steady_clock::now() < until) {
      EXPECT_FALSE(wd->should_stop());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return ok_output();
  });
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.isolate = ExecIsolation::kProcess;
  opts.retry.max_attempts = 1;
  opts.stall_timeout_s = 0.15;  // shorter than the child's runtime
  const BatchSummary s = run_batch({job("slow-remote")}, exec, journal, opts);

  EXPECT_EQ(s.stalls, 0u);
  EXPECT_EQ(s.succeeded, 1u);
  const JobRecord rec = journal.records().at("slow-remote");
  EXPECT_EQ(rec.status, JobStatus::kSucceeded);
  EXPECT_GT(rec.beats, 0u) << "cross-process heartbeats must be journaled";
}

}  // namespace
}  // namespace rgleak::service
