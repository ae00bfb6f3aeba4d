#include "util/durable_file.h"

#include <atomic>
#include <cstdio>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define LMP_HAVE_FSYNC 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace lmp::util {

namespace {

std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<FsyncObserver> g_fsync_observer{nullptr};

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("durable_file: " + what + " failed for " + path);
}

void count_fsync() {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  if (const FsyncObserver fn =
          g_fsync_observer.load(std::memory_order_acquire)) {
    fn();
  }
}

#ifdef LMP_HAVE_FSYNC
void fsync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) io_fail("fsync", path);
  count_fsync();
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}
#endif

}  // namespace

bool fsync_supported() {
#ifdef LMP_HAVE_FSYNC
  return true;
#else
  return false;
#endif
}

std::uint64_t fsyncs_issued() {
  return g_fsyncs.load(std::memory_order_relaxed);
}

void set_fsync_observer(FsyncObserver fn) {
  g_fsync_observer.store(fn, std::memory_order_release);
}

void fsync_parent_dir(const std::string& path) {
#ifdef LMP_HAVE_FSYNC
  const std::string dir = parent_dir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) io_fail("open parent dir", path);
  try {
    fsync_fd(fd, dir);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void write_file_durable(const std::string& path, const void* data,
                        std::size_t len) {
  const std::string tmp = path + ".tmp";
#ifdef LMP_HAVE_FSYNC
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) io_fail("open", tmp);
  try {
    const char* p = static_cast<const char*>(data);
    std::size_t left = len;
    while (left > 0) {
      const ::ssize_t n = ::write(fd, p, left);
      if (n < 0) io_fail("write", tmp);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    // Order matters: the data must be on disk before the rename can
    // publish it — rename-then-fsync can surface a zero-length file
    // after power loss.
    fsync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    io_fail("close", tmp);
  }
#else
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) io_fail("open", tmp);
  const std::size_t n = len ? std::fwrite(data, 1, len, f) : 0;
  const bool ok = (n == len) && std::fclose(f) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    io_fail("write", tmp);
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    io_fail("rename", path);
  }
  // The rename is only durable once the directory entry is synced.
  fsync_parent_dir(path);
}

AppendLog::~AppendLog() { close(); }

void AppendLog::open(const std::string& path) {
  close();
#ifdef LMP_HAVE_FSYNC
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
  if (fd_ < 0) io_fail("open", path);
  struct ::stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    io_fail("stat", path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  path_ = path;
  if (!existed) fsync_parent_dir(path);
#else
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) io_fail("open", path);
  std::fclose(f);
  // ftell on a freshly opened append stream is implementation-defined
  // before the first write; measure the size with an explicit
  // seek-to-end on a read handle instead.
  std::FILE* r = std::fopen(path.c_str(), "rb");
  if (!r) io_fail("open", path);
  long at = -1;
  if (std::fseek(r, 0, SEEK_END) == 0) at = std::ftell(r);
  std::fclose(r);
  if (at < 0) io_fail("size", path);
  fd_ = 0;  // marker: "open" in the fallback
  size_ = static_cast<std::uint64_t>(at);
  path_ = path;
#endif
}

void AppendLog::append(const void* data, std::size_t len, bool sync) {
  if (!is_open()) throw std::runtime_error("durable_file: append on closed log");
#ifdef LMP_HAVE_FSYNC
  const char* p = static_cast<const char*>(data);
  std::size_t left = len;
  while (left > 0) {
    const ::ssize_t n = ::write(fd_, p, left);
    if (n < 0) io_fail("append", path_);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (sync) fsync_fd(fd_, path_);
#else
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (!f) io_fail("open", path_);
  const bool ok = std::fwrite(data, 1, len, f) == len && std::fclose(f) == 0;
  if (!ok) io_fail("append", path_);
  (void)sync;
#endif
  size_ += len;
}

void AppendLog::close() {
#ifdef LMP_HAVE_FSYNC
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
  size_ = 0;
  path_.clear();
}

}  // namespace lmp::util
