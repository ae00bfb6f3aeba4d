#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lmp::util {

/// True when the platform write path issues real fsync barriers (POSIX).
/// Elsewhere the durable helpers still write correctly — they just
/// cannot promise power-loss semantics, and tests that assert the fsync
/// counter skip.
bool fsync_supported();

/// Total fsync calls issued by the durable-file helpers this process
/// (file data + directory entries). Exposed directly so tests can assert
/// the write path without enabling metrics.
std::uint64_t fsyncs_issued();

/// Called after every fsync the helpers issue. util sits below the
/// metrics layer, so obs installs one at static-initialization time to
/// mirror the count into counter "io.fsyncs". Null (the default) counts
/// locally only.
using FsyncObserver = void (*)();
void set_fsync_observer(FsyncObserver fn);

/// Write `len` bytes to `path` with power-loss-safe publication:
/// serialize to `path + ".tmp"`, fsync the file, rename over the
/// destination, then fsync the parent directory so the rename itself is
/// on disk. A crash at any point leaves either the old file or the new
/// one under `path` — never a torn mix. Throws std::runtime_error on
/// any I/O failure (the tmp file is removed best-effort).
void write_file_durable(const std::string& path, const void* data,
                        std::size_t len);

/// fsync the directory containing `path` (POSIX; no-op elsewhere).
/// Needed after rename/creat for the directory entry to survive power
/// loss — fsync of the file alone does not cover its name.
void fsync_parent_dir(const std::string& path);

/// Append-only log file with per-record durability — the substrate of
/// the job journal. open() creates the file if missing (and fsyncs the
/// parent directory so the empty log itself survives); append() writes
/// at the end and optionally fsyncs. A torn tail found during recovery
/// is dropped by rewriting the log durably, not by truncating it. All
/// methods throw std::runtime_error on I/O failure.
class AppendLog {
 public:
  AppendLog() = default;
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  void open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  void append(const void* data, std::size_t len, bool sync);
  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  void close();

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
};

}  // namespace lmp::util
