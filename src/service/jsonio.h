#pragma once
// Minimal JSON line handling for the batch service layer.
//
// Manifests and journals are JSONL: one flat JSON object per line, values
// limited to strings, numbers, booleans, and null. That subset keeps parsing
// a page of code (no external dependency; the container ships none), while
// staying real JSON so manifests can be produced by any tool. Parse failures
// raise located ParseError ("file:line:col"), same contract as every other
// reader in the repo. Writers render strings with util::json_string.

#include <cstddef>
#include <map>
#include <string>

namespace rgleak::service {

/// A parsed flat JSON object: key -> raw scalar value. String values are
/// unescaped; numbers / booleans / null keep their literal spelling ("12.5",
/// "true", "null") — consumers parse them with their own typed checks.
using JsonObject = std::map<std::string, std::string>;

/// Parses one flat JSON object from `text`. `source` and `line` locate
/// errors; `line` is the 1-based line of `text` within its file. Columns in
/// raised ParseErrors are 1-based offsets into `text`.
JsonObject parse_json_object(const std::string& text, const std::string& source,
                             std::size_t line);

}  // namespace rgleak::service
