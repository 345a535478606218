#include "service/job.h"

#include <fstream>
#include <set>
#include <sstream>

#include "service/jsonio.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/format.h"

namespace rgleak::service {

namespace {

std::string take_required(JsonObject& obj, const char* key, const std::string& source,
                          std::size_t line) {
  const auto it = obj.find(key);
  if (it == obj.end() || it->second.empty())
    throw ParseError(source, line, 0, std::string("job needs a non-empty \"") + key + "\"");
  std::string value = it->second;
  obj.erase(it);
  return value;
}

double parse_number(const std::string& tok, const char* what, const std::string& source,
                    std::size_t line) {
  double v = 0.0;
  if (!util::parse_double(tok, v))
    throw ParseError(source, line, 0, std::string("expected a number for ") + what, tok);
  return v;
}

}  // namespace

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kSucceeded: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kShed: return "shed";
  }
  return "unknown";
}

std::vector<JobSpec> parse_manifest(std::istream& is, const std::string& source) {
  std::vector<JobSpec> jobs;
  std::set<std::string> seen;
  std::string text;
  std::size_t line = 0;
  while (std::getline(is, text)) {
    ++line;
    RGLEAK_FAILPOINT("service.manifest.read_line");
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos || text[first] == '#') continue;
    JsonObject obj = parse_json_object(text, source, line);
    JobSpec job;
    job.line = line;
    job.id = take_required(obj, "id", source, line);
    job.kind = take_required(obj, "kind", source, line);
    if (!seen.insert(job.id).second)
      throw ParseError(source, line, 0, "duplicate job id", job.id);
    job.params = std::move(obj);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<JobSpec> load_manifest(const std::string& path) {
  RGLEAK_FAILPOINT("service.manifest.open");
  std::ifstream is(path);
  if (!is) throw IoError("cannot open manifest for reading: " + path);
  return parse_manifest(is, path);
}

std::string journal_record_json(const JobRecord& rec) {
  std::ostringstream os;
  os << "{\"job\":" << util::json_string(rec.id) << ",\"status\":\""
     << job_status_name(rec.status) << "\",\"attempts\":" << rec.attempts;
  // Numbers go through util::format_double*: ostringstream honors
  // LC_NUMERIC, and a decimal-comma journal line would fail its own strict
  // re-parse (and its byte-identity guarantee across locales).
  os << ",\"wall_ms\":" << util::format_double_fixed(rec.wall_ms, 4);
  if (rec.status == JobStatus::kSucceeded) {
    os << ",\"mean_na\":" << util::format_double(rec.mean_na, 17)
       << ",\"sigma_na\":" << util::format_double(rec.sigma_na, 17);
    if (!rec.method.empty()) os << ",\"method\":" << util::json_string(rec.method);
  }
  if (!rec.degradation.empty()) os << ",\"degradation\":" << util::json_string(rec.degradation);
  if (rec.beats > 0) os << ",\"beats\":" << rec.beats;
  if (!rec.error.empty()) os << ",\"error\":" << util::json_string(rec.error);
  os << "}";
  // Integrity trailer: a bit flip or a torn tail in a journal line is a
  // located ParseError at load, not silent data.
  std::string line = os.str();
  util::add_crc_trailer(line);
  return line;
}

JobRecord parse_journal_record(const std::string& text, const std::string& source,
                               std::size_t line) {
  // Records written before checksumming (or by external tools) have no
  // trailer and are accepted as-is; a malformed or wrong checksum is
  // corruption and must not parse.
  std::string body = text;
  if (util::strip_crc_trailer(body) == util::CrcTrailer::kBad)
    throw ParseError(source, line, 0,
                     "journal record checksum mismatch or malformed crc (corrupt or truncated "
                     "record)");
  JsonObject obj = parse_json_object(body, source, line);
  if (obj.count("crc") > 0)
    throw ParseError(source, line, 0, "journal record crc is not the trailing 8-hex-digit field");
  JobRecord rec;
  rec.id = take_required(obj, "job", source, line);
  const std::string status = take_required(obj, "status", source, line);
  if (status == "ok") rec.status = JobStatus::kSucceeded;
  else if (status == "failed") rec.status = JobStatus::kFailed;
  else if (status == "shed") rec.status = JobStatus::kShed;
  else throw ParseError(source, line, 0, "unknown job status", status);
  if (const auto it = obj.find("attempts"); it != obj.end())
    rec.attempts = static_cast<int>(parse_number(it->second, "attempts", source, line));
  if (const auto it = obj.find("wall_ms"); it != obj.end())
    rec.wall_ms = parse_number(it->second, "wall_ms", source, line);
  if (const auto it = obj.find("mean_na"); it != obj.end())
    rec.mean_na = parse_number(it->second, "mean_na", source, line);
  if (const auto it = obj.find("sigma_na"); it != obj.end())
    rec.sigma_na = parse_number(it->second, "sigma_na", source, line);
  if (const auto it = obj.find("method"); it != obj.end()) rec.method = it->second;
  if (const auto it = obj.find("degradation"); it != obj.end()) rec.degradation = it->second;
  if (const auto it = obj.find("beats"); it != obj.end())
    rec.beats = static_cast<std::uint64_t>(parse_number(it->second, "beats", source, line));
  if (const auto it = obj.find("error"); it != obj.end()) rec.error = it->second;
  if (rec.status == JobStatus::kSucceeded && obj.find("mean_na") == obj.end())
    throw ParseError(source, line, 0, "succeeded record is missing mean_na", rec.id);
  return rec;
}

}  // namespace rgleak::service
