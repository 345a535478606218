#pragma once
// Interrupt-safe file writing: emit into a sibling temp file, then rename()
// onto the target. rename() within a directory is atomic on POSIX, so a
// reader (or a rerun after SIGINT / a crash / an injected io failpoint) sees
// either the complete previous file or the complete new one — never a
// truncated artifact. Every writer that produces a consumable file
// (.rgchar, .rgnl, .lib, .sp, MC checkpoints) goes through this helper.

#include <functional>
#include <iosfwd>
#include <string>

namespace rgleak::util {

/// Writes `emit(os)` to `path` atomically: the content goes to
/// "<path>.tmp.<pid>" first and is renamed onto `path` only after a
/// successful flush. On any failure (open, emit throwing, flush, rename) the
/// temp file is removed and the previous `path` contents are left untouched.
/// Throws IoError for OS-level failures; exceptions from `emit` propagate.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& emit);

/// fsyncs the directory that holds `path`, so a file created or renamed
/// there survives power loss. Throws IoError when the open or the sync fails.
void sync_parent_directory(const std::string& path);

}  // namespace rgleak::util
