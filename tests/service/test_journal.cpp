// The crash-only batch journal: append-only persistence, resume semantics,
// torn-tail truncation, malformed-file refusal, absorbed and healed write
// failures, concurrent appends, and writers SIGKILL'd mid-append.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <clocale>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "service/journal.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace rgleak::service {
namespace {

using util::FailpointAction;
using util::ScopedFailpoint;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

JobRecord ok_record(const std::string& id, double mean) {
  JobRecord rec;
  rec.id = id;
  rec.status = JobStatus::kSucceeded;
  rec.attempts = 1;
  rec.mean_na = mean;
  rec.sigma_na = mean / 10.0;
  rec.method = "linear";
  return rec;
}

TEST(Journal, MissingFileIsAFreshJournal) {
  const std::string path = temp_path("rgleak_journal_fresh.jsonl");
  std::remove(path.c_str());
  const Journal j = Journal::open(path);
  EXPECT_EQ(j.size(), 0u);
  EXPECT_FALSE(j.has("anything"));
}

TEST(Journal, AppendPersistsAndReopenRestores) {
  const std::string path = temp_path("rgleak_journal_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    j.append(ok_record("a", 100.0));
    j.append(ok_record("b", 200.0));
    JobRecord bad;
    bad.id = "c";
    bad.status = JobStatus::kFailed;
    bad.attempts = 3;
    bad.error = "{\"error\":\"numerical\",\"message\":\"nan\"}";
    j.append(bad);
    EXPECT_EQ(j.write_failures(), 0u);
  }
  const Journal j = Journal::open(path);
  EXPECT_EQ(j.size(), 3u);
  EXPECT_TRUE(j.has("a"));
  EXPECT_TRUE(j.has("c"));
  const auto records = j.records();
  EXPECT_EQ(records.at("b").mean_na, 200.0);
  EXPECT_EQ(records.at("c").status, JobStatus::kFailed);
  EXPECT_EQ(records.at("c").error, "{\"error\":\"numerical\",\"message\":\"nan\"}");
  std::remove(path.c_str());
}

TEST(Journal, EmptyPathIsInMemoryOnly) {
  Journal j = Journal::open("");
  j.append(ok_record("a", 1.0));
  EXPECT_TRUE(j.has("a"));
  EXPECT_EQ(j.path(), "");
}

TEST(Journal, MalformedFilesAreRefusedWithLocatedErrors) {
  const std::string path = temp_path("rgleak_journal_bad.jsonl");
  const auto write = [&](const char* text) {
    std::ofstream os(path);
    os << text;
  };

  write("not-a-journal\n");
  try {
    (void)Journal::open(path);
    ADD_FAILURE() << "expected ParseError for bad magic";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), path);
    EXPECT_EQ(e.line(), 1u);
  }

  // A final line without its newline is an append that did not finish: it
  // is cut, and the complete record before it loads.
  write("rgbatch-journal-v1\n{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":1}\n{\"job\":\"a\"");
  {
    const Journal j = Journal::open(path);
    EXPECT_EQ(j.size(), 1u);
    EXPECT_TRUE(j.has("a"));
  }
  EXPECT_EQ(slurp(path), "rgbatch-journal-v1\n{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":1}\n");

  // The same bytes as a complete line are a malformed record, not a torn one.
  write("rgbatch-journal-v1\n{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":1}\n{\"job\":\"a\"\n");
  try {
    (void)Journal::open(path);
    ADD_FAILURE() << "expected ParseError for a malformed final line";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }

  write(
      "rgbatch-journal-v1\n"
      "{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":1}\n"
      "{\"job\":\"a\",\"status\":\"ok\",\"mean_na\":2}\n");
  try {
    (void)Journal::open(path);
    ADD_FAILURE() << "expected ParseError for duplicate record";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("duplicate journal record"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Journal, OpenRewritesATornHeaderButNeverTouchesAForeignFile) {
  const std::string path = temp_path("rgleak_journal_header.jsonl");
  {
    std::ofstream os(path);
    os << "rgbatch-jou";  // the header write of a fresh journal, torn
  }
  EXPECT_EQ(Journal::open(path).size(), 0u);
  EXPECT_EQ(slurp(path), "rgbatch-journal-v1\n");

  {
    std::ofstream os(path);
    os << "some other file";  // no newline either, but not a header prefix
  }
  try {
    (void)Journal::open(path);
    ADD_FAILURE() << "expected ParseError for a foreign file";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
  }
  EXPECT_EQ(slurp(path), "some other file");
  std::remove(path.c_str());
}

TEST(Journal, WriteFailureIsAbsorbedAndHealedByTheNextAppend) {
  const std::string path = temp_path("rgleak_journal_absorb.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    {
      const ScopedFailpoint fp("service.journal.append", FailpointAction::kThrow, 1);
      j.append(ok_record("a", 1.0));  // persistence fails, record kept in memory
    }
    EXPECT_EQ(j.write_failures(), 1u);
    EXPECT_TRUE(j.has("a"));
    EXPECT_EQ(slurp(path), "rgbatch-journal-v1\n");  // the failed append wrote nothing

    j.append(ok_record("b", 2.0));  // healthy append persists both records
    EXPECT_EQ(j.write_failures(), 1u);
  }  // closing the journal releases the writer lock for the reopen below
  const Journal back = Journal::open(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_TRUE(back.has("a"));
  EXPECT_TRUE(back.has("b"));
  std::remove(path.c_str());
}

TEST(Journal, AFailedSyncIsCutAndWrittenOnceByTheNextAppend) {
  // The line reached the file but its sync failed, so the journal does not
  // count it as persisted: the next append cuts the file back to its last
  // good length and writes both records, never the first one twice.
  const std::string path = temp_path("rgleak_journal_sync.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    {
      const ScopedFailpoint fp("service.journal.sync", FailpointAction::kThrow, 1);
      j.append(ok_record("a", 1.0));
    }
    EXPECT_EQ(j.write_failures(), 1u);
    j.append(ok_record("b", 2.0));
    EXPECT_EQ(j.write_failures(), 1u);
  }
  const Journal back = Journal::open(path);  // a duplicate line would be a ParseError
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(slurp(path), "rgbatch-journal-v1\n" + journal_record_json(ok_record("a", 1.0)) +
                             "\n" + journal_record_json(ok_record("b", 2.0)) + "\n");
  std::remove(path.c_str());
}

TEST(Journal, JournalAppendFailpointIsAbsorbedToo) {
  const std::string path = temp_path("rgleak_journal_failpoint.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    {
      const ScopedFailpoint fp("service.journal.append", FailpointAction::kThrow, 2);
      j.append(ok_record("a", 1.0));
      j.append(ok_record("b", 2.0));
    }
    EXPECT_EQ(j.write_failures(), 2u);
    EXPECT_TRUE(j.has("a"));
    EXPECT_TRUE(j.has("b"));
    j.flush();  // explicit flush persists what the failed appends could not
  }
  const Journal back = Journal::open(path);
  EXPECT_EQ(back.size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, SingleWriterLockRefusesASecondOpen) {
  const std::string path = temp_path("rgleak_journal_locked.jsonl");
  std::remove(path.c_str());
  {
    Journal first = Journal::open(path);
    first.append(ok_record("a", 1.0));
    try {
      (void)Journal::open(path);
      ADD_FAILURE() << "second writer must be refused while the first holds the lock";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("already open"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
  // Closing the first writer releases the flock: the journal is usable again,
  // with nothing lost to the refused open.
  const Journal second = Journal::open(path);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_TRUE(second.has("a"));
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));  // the lock is on the journal itself
  std::remove(path.c_str());
}

TEST(Journal, InMemoryJournalsTakeNoLock) {
  // Two in-memory journals coexist: no path, no sidecar, no exclusion.
  Journal a = Journal::open("");
  Journal b = Journal::open("");
  a.append(ok_record("a", 1.0));
  b.append(ok_record("b", 2.0));
  EXPECT_TRUE(a.has("a"));
  EXPECT_TRUE(b.has("b"));
}

// A corpus fixture, copied into the test temp dir first: opening a journal
// may write to it (the cut of a torn tail), which the source tree must not
// see.
std::string corpus(const char* file) {
  const std::string copy = temp_path(file);
  std::filesystem::copy_file(std::string(RGLEAK_JOURNAL_CORPUS_DIR) + "/" + file, copy,
                             std::filesystem::copy_options::overwrite_existing);
  return copy;
}

TEST(Journal, ChecksummedRecordsRoundTripAndCorruptOnesAreRefused) {
  // Every record the journal writes now carries a "crc" trailer field; the
  // roundtrip tests above prove checksummed records re-parse. The corpus
  // holds the two corruption shapes: a payload bit-flipped after the crc was
  // stamped, and a record torn in the middle with the suffix intact.
  try {
    (void)Journal::open(corpus("crc_mismatch.journal"));
    ADD_FAILURE() << "expected ParseError for checksum mismatch";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u) << "line 2 is valid; the flipped record is line 3";
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
  }
  try {
    (void)Journal::open(corpus("crc_truncated.journal"));
    ADD_FAILURE() << "expected ParseError for torn record";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
  }
}

TEST(Journal, MalformedChecksumIsRefused) {
  // A crc that is not 8 hex digits must not skip verification: the record
  // would load as done and its job be skipped on resume.
  try {
    (void)Journal::open(corpus("crc_malformed.journal"));
    ADD_FAILURE() << "expected ParseError for a malformed crc";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("malformed crc"), std::string::npos) << e.what();
  }
}

TEST(Journal, LegacyRecordsWithoutChecksumStillLoad) {
  // Journals written before record checksumming carry no "crc" field; they
  // must keep loading so an upgrade never strands a half-finished batch.
  const std::string path = temp_path("rgleak_journal_legacy.jsonl");
  {
    std::ofstream os(path);
    os << "rgbatch-journal-v1\n"
       << "{\"job\":\"old\",\"status\":\"ok\",\"attempts\":1,\"wall_ms\":1.0000,"
          "\"mean_na\":42,\"sigma_na\":4.2}\n";
  }
  const Journal j = Journal::open(path);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.records().at("old").mean_na, 42.0);
  std::remove(path.c_str());
}

// Regression for the LC_NUMERIC bug: journal numbers used to flow through
// locale-honoring formatters, so a process started under a comma-decimal
// locale wrote "3,5"-style records its own parser then refused. The journal
// must now be byte-identical whatever the locale, and re-parse exactly.
TEST(Journal, RoundTripIsByteIdenticalUnderCommaDecimalLocale) {
  const char* applied = std::setlocale(LC_ALL, "de_DE.UTF-8");
  if (applied == nullptr) applied = std::setlocale(LC_ALL, "de_DE");
  if (applied == nullptr)
    GTEST_SKIP() << "no comma-decimal locale installed; locale hardness not exercised";

  const auto write_journal = [](const std::string& path) {
    std::remove(path.c_str());
    Journal j = Journal::open(path);
    // Fractional values that a comma locale would mangle, including a
    // full-precision irrational-ish one.
    JobRecord rec = ok_record("locale-a", 123.456789);
    rec.sigma_na = 1.0 / 3.0;
    rec.wall_ms = 12.3456;
    j.append(rec);
    j.append(ok_record("locale-b", 2.5e-3));
  };

  const std::string comma_path = temp_path("rgleak_journal_locale_comma.jsonl");
  write_journal(comma_path);
  std::setlocale(LC_ALL, "C");
  const std::string c_path = temp_path("rgleak_journal_locale_c.jsonl");
  write_journal(c_path);

  const std::string comma_bytes = slurp(comma_path);
  EXPECT_FALSE(comma_bytes.empty());
  // Byte identity with the C-locale run is the whole theorem: the C-locale
  // file cannot contain decimal commas, so neither does this one.
  EXPECT_EQ(comma_bytes, slurp(c_path));

  // And the comma-locale-written file re-parses to the exact values.
  const Journal j = Journal::open(comma_path);
  EXPECT_EQ(j.records().at("locale-a").mean_na, 123.456789);
  EXPECT_EQ(j.records().at("locale-a").sigma_na, 1.0 / 3.0);
  EXPECT_EQ(j.records().at("locale-b").mean_na, 2.5e-3);
  for (const std::string& p : {comma_path, c_path}) std::remove(p.c_str());
}

TEST(Journal, FlushRethrowsWhatAppendAbsorbs) {
  const std::string path = temp_path("rgleak_journal_flushfail.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    const ScopedFailpoint fp("service.journal.append", FailpointAction::kThrow, 2);
    j.append(ok_record("a", 1.0));  // absorbed
    EXPECT_THROW(j.flush(), util::FailpointError);
    j.flush();  // the failpoint is spent: this one heals the file
  }
  EXPECT_TRUE(Journal::open(path).has("a"));
  std::remove(path.c_str());
}

TEST(Journal, SecondAppendForAnIdIsAContractViolation) {
  const std::string path = temp_path("rgleak_journal_duplicate.jsonl");
  std::remove(path.c_str());
  {
    Journal j = Journal::open(path);
    j.append(ok_record("a", 1.0));
    EXPECT_THROW(j.append(ok_record("a", 2.0)), ContractViolation);
    EXPECT_EQ(j.records().at("a").mean_na, 1.0);
  }
  const Journal back = Journal::open(path);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records().at("a").mean_na, 1.0);

  Journal memory = Journal::open("");
  memory.append(ok_record("a", 1.0));
  EXPECT_THROW(memory.append(ok_record("a", 2.0)), ContractViolation);
  std::remove(path.c_str());
}

TEST(Journal, TornTailCorpusOpensWithItsCompleteRecords) {
  // Two records, then half of a third with no newline: the shape a SIGKILL
  // in the middle of an append's write leaves.
  const std::string path = corpus("torn_tail.journal");
  {
    Journal j = Journal::open(path);
    EXPECT_EQ(j.size(), 2u);
    EXPECT_TRUE(j.has("t-1"));
    EXPECT_TRUE(j.has("t-2"));
    EXPECT_FALSE(j.has("t-3"));  // its job re-runs
    j.append(ok_record("t-3", 99.5));
  }
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // header + 3 records
  const Journal back = Journal::open(path);
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(back.records().at("t-3").mean_na, 99.5);
  std::remove(path.c_str());
}

TEST(Journal, ConcurrentAppendsAllLand) {
  const std::string path = temp_path("rgleak_journal_concurrent.jsonl");
  std::remove(path.c_str());
  constexpr int kThreads = 4, kPerThread = 200;
  {
    Journal j = Journal::open(path);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
      writers.emplace_back([&j, t] {
        for (int i = 0; i < kPerThread; ++i)
          j.append(ok_record("w" + std::to_string(t) + "-" + std::to_string(i), i));
      });
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(j.write_failures(), 0u);
  }
  const Journal back = Journal::open(path);
  EXPECT_EQ(back.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      EXPECT_TRUE(back.has("w" + std::to_string(t) + "-" + std::to_string(i)));
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), kThreads * kPerThread + 1);
  std::remove(path.c_str());
}

// A writer SIGKILL'd at a random instant, fifty times: the killed child
// appends k0, k1, ... until it dies, and every reopen must hold a gap-free
// prefix of those ids and accept the next append. The child only opens and
// appends (no threads), so it is safe to fork under the sanitizers.
TEST(JournalIsolate, SigkilledAppenderLeavesAGapFreePrefix) {
  const std::string path = temp_path("rgleak_journal_killed.jsonl");
  std::mt19937 rng(20261020u);
  std::uniform_int_distribution<int> delay_us(0, 6000);
  std::size_t longest = 0;
  for (int round = 0; round < 50; ++round) {
    std::remove(path.c_str());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        Journal j = Journal::open(path);
        for (int i = 0;; ++i) j.append(ok_record("k" + std::to_string(i), i));
      } catch (...) {
      }
      ::_exit(1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us(rng)));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "round " << round << ": the appender stopped by itself";

    std::size_t n = 0;
    {
      Journal j = Journal::open(path);
      n = j.size();
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(j.has("k" + std::to_string(i))) << "round " << round << ": gap at k" << i;
      j.append(ok_record("after", 1.0));
    }
    const Journal back = Journal::open(path);
    EXPECT_EQ(back.size(), n + 1) << "round " << round;
    EXPECT_TRUE(back.has("after")) << "round " << round;
    longest = std::max(longest, n);
  }
  EXPECT_GT(longest, 0u) << "no child lived long enough to append";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rgleak::service
