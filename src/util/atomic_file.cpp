#include "util/atomic_file.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"
#include "util/failpoint.h"

#if defined(_WIN32)
#include <process.h>
#define RGLEAK_GETPID _getpid
#else
#include <fcntl.h>
#include <unistd.h>
#define RGLEAK_GETPID getpid
#endif

namespace rgleak::util {

namespace {

// Removes the temp file on every exit path that did not commit it.
struct TempGuard {
  std::string path;
  bool committed = false;
  ~TempGuard() {
    if (!committed) std::remove(path.c_str());
  }
};

#if !defined(_WIN32)
// fsync `path` (a file opened O_WRONLY or a directory opened O_RDONLY).
// Throws IoError when the open or the sync fails.
void fsync_or_throw(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY : O_WRONLY);
  if (fd < 0) throw IoError("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw IoError("fsync failed: " + path);
}
#endif

}  // namespace

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& emit) {
  TempGuard tmp{path + ".tmp." + std::to_string(RGLEAK_GETPID())};
  {
    std::ofstream os(tmp.path, std::ios::trunc);
    if (!os) throw IoError("cannot open for writing: " + tmp.path);
    RGLEAK_FAILPOINT("util.atomic_file.write");
    emit(os);
    os.flush();
    if (!os) throw IoError("write failed: " + tmp.path);
  }
#if !defined(_WIN32)
  // Durability step 1: force the temp file's data to stable storage BEFORE
  // the rename. Without this a power loss after the rename can leave the
  // destination pointing at a zero-length or partial file on journaled
  // filesystems that reorder data behind metadata — the classic broken
  // temp+rename. A failure here aborts the commit; the destination is
  // untouched and the temp file is removed.
  RGLEAK_FAILPOINT("util.atomic_file.fsync");
  fsync_or_throw(tmp.path, /*directory=*/false);
#endif
  RGLEAK_FAILPOINT("util.atomic_file.commit");
  if (std::rename(tmp.path.c_str(), path.c_str()) != 0)
    throw IoError("cannot rename " + tmp.path + " onto " + path);
  tmp.committed = true;
#if !defined(_WIN32)
  // Durability step 2: fsync the parent directory so the rename (the name →
  // inode update) itself survives power loss. The file IS committed by this
  // point — a failure here raises IoError but the destination already holds
  // the new content; callers that must distinguish can check the path.
  RGLEAK_FAILPOINT("util.atomic_file.fsync_dir");
  sync_parent_directory(path);
#endif
}

void sync_parent_directory(const std::string& path) {
#if !defined(_WIN32)
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash == 0 ? 1 : slash);
  fsync_or_throw(dir, /*directory=*/true);
#else
  (void)path;
#endif
}

}  // namespace rgleak::util
