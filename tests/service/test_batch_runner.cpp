// The batch orchestrator against synthetic executors: fault isolation,
// retry/degrade/backoff mechanics (on a FakeClock — zero real sleeping),
// budget exhaustion, stop semantics, resume skipping, watchdog deadlines,
// and deterministic load shedding.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/batch_runner.h"
#include "util/backoff.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/run_control.h"

namespace rgleak::service {
namespace {

/// Executor driven by a lambda; records every (job id, degrade) call.
class FakeExecutor : public Executor {
 public:
  using Fn = std::function<JobOutput(const JobSpec&, const util::RunControl*, int)>;
  explicit FakeExecutor(Fn fn) : fn_(std::move(fn)) {}

  JobOutput execute(const JobSpec& job, const util::RunControl* watchdog, int degrade) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      calls_.emplace_back(job.id, degrade);
    }
    return fn_(job, watchdog, degrade);
  }

  std::vector<std::pair<std::string, int>> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }
  std::vector<int> degrades_for(const std::string& id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> out;
    for (const auto& c : calls_)
      if (c.first == id) out.push_back(c.second);
    return out;
  }

 private:
  Fn fn_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, int>> calls_;
};

JobSpec job(const std::string& id) {
  JobSpec j;
  j.id = id;
  j.kind = "test";
  return j;
}

JobOutput ok_output(double mean) {
  JobOutput out;
  out.mean_na = mean;
  out.sigma_na = mean / 10.0;
  out.method = "fake";
  return out;
}

TEST(BatchRunner, AllJobsSucceedAndAreJournaled) {
  FakeExecutor exec([](const JobSpec& j, const util::RunControl*, int) {
    return ok_output(j.id == "a" ? 1.0 : 2.0);
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.workers = 2;
  opts.clock = &clock;
  const BatchSummary s = run_batch({job("a"), job("b"), job("c")}, exec, journal, opts);

  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.succeeded, 3u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.accounted(), s.total);
  EXPECT_FALSE(s.stopped);
  EXPECT_EQ(journal.size(), 3u);
  const auto records = journal.records();
  EXPECT_EQ(records.at("a").status, JobStatus::kSucceeded);
  EXPECT_EQ(records.at("a").attempts, 1);
  EXPECT_EQ(records.at("a").mean_na, 1.0);
  EXPECT_EQ(records.at("a").method, "fake");
  EXPECT_EQ(clock.total_slept_ms(), 0.0);  // no retries, no backoff
}

TEST(BatchRunner, PermanentFailureIsTerminalOnTheFirstAttempt) {
  FakeExecutor exec([](const JobSpec&, const util::RunControl*, int) -> JobOutput {
    throw ConfigError("unknown method 'bogus'");
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 5;  // irrelevant: config errors never retry
  // Asserts on exec.calls(), recorded in this process: pin in-process even
  // when the environment (CI's process-isolation job) forces sandboxing.
  opts.isolate = ExecIsolation::kInProcess;
  const BatchSummary s = run_batch({job("bad")}, exec, journal, opts);

  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(exec.calls().size(), 1u);
  const JobRecord rec = journal.records().at("bad");
  EXPECT_EQ(rec.status, JobStatus::kFailed);
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_NE(rec.error.find("\"error\":\"config\""), std::string::npos) << rec.error;
  EXPECT_EQ(clock.total_slept_ms(), 0.0);
}

TEST(BatchRunner, RetryableFailureWalksTheDegradeLadderOnTheExactBackoffSchedule) {
  // Fails at degrade 0 and 1, succeeds at 2: attempts = 3, retries = 2, and
  // the two backoff sleeps must match the job's deterministic jitter stream.
  FakeExecutor exec([](const JobSpec&, const util::RunControl*, int degrade) {
    if (degrade < 2) throw NumericalError("transient nan");
    return ok_output(42.0);
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 4;
  opts.jitter_seed = 0xfeedULL;
  opts.isolate = ExecIsolation::kInProcess;  // asserts on exec.degrades_for()
  const BatchSummary s = run_batch({job("flaky")}, exec, journal, opts);

  EXPECT_EQ(s.succeeded, 1u);
  EXPECT_EQ(s.retries, 2u);
  const JobRecord rec = journal.records().at("flaky");
  EXPECT_EQ(rec.status, JobStatus::kSucceeded);
  EXPECT_EQ(rec.attempts, 3);
  EXPECT_TRUE(rec.error.empty());  // success clears the last attempt's error
  EXPECT_EQ(exec.degrades_for("flaky"), (std::vector<int>{0, 1, 2}));

  // Reproduce the schedule the runner must have drawn: per-job seed is
  // jitter_seed ^ FNV-1a(id), and sleeps are chunked at <= 25 ms.
  util::BackoffState state =
      util::backoff_state_for(opts.jitter_seed ^ util::backoff_job_hash("flaky"));
  double expected = 0.0;
  for (int i = 0; i < 2; ++i) expected += util::next_backoff_ms(opts.retry.backoff, state);
  EXPECT_NEAR(clock.total_slept_ms(), expected, 1e-6);
  for (double chunk : clock.sleeps()) EXPECT_LE(chunk, 25.0);  // cancellable chunks
}

TEST(BatchRunner, ExhaustedRetryBudgetMakesFailuresTerminal) {
  FakeExecutor exec([](const JobSpec&, const util::RunControl*, int) -> JobOutput {
    throw NumericalError("always fails");
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 3;
  opts.retry.batch_retry_budget = 1;  // one retry for the whole batch
  const BatchSummary s = run_batch({job("a"), job("b")}, exec, journal, opts);

  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.retries, 1u);
  const auto records = journal.records();
  // workers=1 runs jobs in order: "a" burns the budget (2 attempts), "b" is
  // denied its first retry (1 attempt).
  EXPECT_EQ(records.at("a").attempts, 2);
  EXPECT_EQ(records.at("b").attempts, 1);
}

TEST(BatchRunner, ForeignExceptionIsRetriedAndRecordedAsInternal) {
  FakeExecutor exec([](const JobSpec&, const util::RunControl*, int) -> JobOutput {
    throw std::runtime_error("something foreign");
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 2;
  const BatchSummary s = run_batch({job("alien")}, exec, journal, opts);

  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retries, 1u);  // unclassifiable = assumed transient
  const JobRecord rec = journal.records().at("alien");
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_NE(rec.error.find("\"error\":\"internal\""), std::string::npos) << rec.error;
}

TEST(BatchRunner, BatchStopAbandonsRemainingJobsWithoutRecords) {
  util::RunControl run;
  FakeExecutor exec([&run](const JobSpec& j, const util::RunControl* watchdog, int) {
    if (j.id == "first") {
      run.request_stop();
      // The per-job watchdog is parent-linked to the batch stop source.
      EXPECT_TRUE(watchdog->should_stop());
    }
    return ok_output(1.0);
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.run = &run;
  // The lambda stops the batch through shared memory: in-process semantics.
  opts.isolate = ExecIsolation::kInProcess;
  const BatchSummary s = run_batch({job("first"), job("second"), job("third")}, exec, journal, opts);

  EXPECT_TRUE(s.stopped);
  EXPECT_EQ(s.succeeded, 1u);  // "first" finished its attempt and keeps its record
  EXPECT_EQ(s.interrupted, 2u);  // the rest: no record, will re-run on resume
  EXPECT_EQ(s.accounted(), 3u);
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_FALSE(journal.has("second"));
  EXPECT_FALSE(journal.has("third"));
}

TEST(BatchRunner, FailureDuringStopIsInterruptedNotFailed) {
  // A failure observed while the batch is stopping is indistinguishable from
  // a cancellation side effect: the job must re-run cleanly on resume.
  util::RunControl run;
  FakeExecutor exec([&run](const JobSpec&, const util::RunControl*, int) -> JobOutput {
    run.request_stop();
    throw NumericalError("possibly a cancellation artifact");
  });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.run = &run;
  opts.isolate = ExecIsolation::kInProcess;  // stop is requested via shared memory
  const BatchSummary s = run_batch({job("only")}, exec, journal, opts);

  EXPECT_TRUE(s.stopped);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.interrupted, 1u);
  EXPECT_EQ(journal.size(), 0u);
}

TEST(BatchRunner, AlreadyJournaledJobsAreSkippedOnResume) {
  Journal journal = Journal::open("");
  JobRecord done;
  done.id = "a";
  done.status = JobStatus::kSucceeded;
  done.attempts = 1;
  done.mean_na = 7.0;
  journal.append(done);

  FakeExecutor exec(
      [](const JobSpec&, const util::RunControl*, int) { return ok_output(99.0); });
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.isolate = ExecIsolation::kInProcess;  // asserts on exec.calls()
  const BatchSummary s = run_batch({job("a"), job("b")}, exec, journal, opts);

  EXPECT_EQ(s.skipped, 1u);
  EXPECT_EQ(s.succeeded, 1u);
  ASSERT_EQ(exec.calls().size(), 1u);
  EXPECT_EQ(exec.calls()[0].first, "b");                 // "a" never re-ran
  EXPECT_EQ(journal.records().at("a").mean_na, 7.0);     // and kept its record
}

TEST(BatchRunner, WatchdogDeadlineProducesAStructuredDeadlineFailure) {
  // The executor honours the watchdog like a real kernel: polls until told to
  // stop. With a tiny per-attempt deadline the poll throws DeadlineExceeded,
  // which is terminal here because max_attempts = 1.
  FakeExecutor exec([](const JobSpec&, const util::RunControl* watchdog, int) -> JobOutput {
    for (;;) {
      watchdog->poll("test.job");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.retry.max_attempts = 1;
  opts.job_deadline_s = 0.02;
  const BatchSummary s = run_batch({job("wedged")}, exec, journal, opts);

  EXPECT_EQ(s.failed, 1u);
  EXPECT_FALSE(s.stopped);  // the batch outlives the wedged job
  const JobRecord rec = journal.records().at("wedged");
  EXPECT_EQ(rec.status, JobStatus::kFailed);
  EXPECT_NE(rec.error.find("\"error\":\"deadline\""), std::string::npos) << rec.error;
}

TEST(BatchRunner, BlockPolicyAppliesBackpressureAndNeverSheds) {
  FakeExecutor exec(
      [](const JobSpec&, const util::RunControl*, int) { return ok_output(1.0); });
  Journal journal = Journal::open("");
  util::FakeClock clock;
  BatchOptions opts;
  opts.clock = &clock;
  opts.queue_depth = 1;
  opts.shed_policy = ShedPolicy::kBlock;
  std::vector<JobSpec> jobs;
  // append(), not "j" + ...: GCC 12 at -O3 reports a false -Wrestrict there.
  for (int i = 0; i < 16; ++i) jobs.push_back(job(std::string("j").append(std::to_string(i))));
  const BatchSummary s = run_batch(jobs, exec, journal, opts);

  EXPECT_EQ(s.succeeded, 16u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_LE(s.queue_high_watermark, 1u);
}

TEST(BatchRunner, ConcurrentShedJobsGetStructuredRecords) {
  // workers=1, capacity 1, reject-new: the first job blocks until a later job
  // has been shed (only a shed can journal "b" or "c" while the single worker
  // is still busy), so at least one shed record is guaranteed and the batch
  // can never deadlock.
  Journal journal = Journal::open("");
  FakeExecutor exec([&journal](const JobSpec& j, const util::RunControl*, int) {
    if (j.id == "slow") {
      while (!journal.has("b") && !journal.has("c"))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ok_output(1.0);
  });
  BatchOptions opts;
  opts.queue_depth = 1;
  opts.shed_policy = ShedPolicy::kRejectNew;
  // The "slow" lambda watches the journal from inside the executor — shared
  // memory with the batch, so in-process only.
  opts.isolate = ExecIsolation::kInProcess;
  const BatchSummary s = run_batch({job("slow"), job("b"), job("c")}, exec, journal, opts);

  EXPECT_GE(s.shed, 1u);
  EXPECT_EQ(s.succeeded + s.shed, 3u);
  EXPECT_EQ(s.accounted(), 3u);
  EXPECT_EQ(journal.size(), 3u);  // every job terminal: ok or shed
  bool saw_shed_record = false;
  for (const auto& [id, rec] : journal.records()) {
    if (rec.status != JobStatus::kShed) continue;
    saw_shed_record = true;
    EXPECT_NE(rec.error.find("\"error\":\"shed\""), std::string::npos) << id << ": " << rec.error;
    EXPECT_NE(rec.error.find("reject-new"), std::string::npos) << rec.error;
  }
  EXPECT_TRUE(saw_shed_record);
}

TEST(BatchRunner, MisconfigurationIsAContractViolation) {
  FakeExecutor exec(
      [](const JobSpec&, const util::RunControl*, int) { return ok_output(1.0); });
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.retry.max_attempts = 0;
  EXPECT_THROW(run_batch({job("a")}, exec, journal, opts), ContractViolation);
  opts.retry.max_attempts = 1;
  opts.queue_depth = 0;
  EXPECT_THROW(run_batch({job("a")}, exec, journal, opts), ContractViolation);
}

}  // namespace
}  // namespace rgleak::service
