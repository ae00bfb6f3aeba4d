#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace lmp::test {

/// This process's own scratch directory, TempDir()/lmp-<pid>/, created on
/// first use and removed when the process exits. Two concurrent runs of
/// the test binary therefore never share a file.
inline const std::filesystem::path& process_tmp_dir() {
  struct Dir {
    std::filesystem::path path;
    Dir()
        : path(std::filesystem::path(::testing::TempDir()) /
               ("lmp-" + std::to_string(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// TempDir()/lmp-<pid>/<name>, with any file left at that path removed: a
/// stale journal would otherwise be replayed as history.
inline std::string tmp_path(const std::string& name) {
  const std::filesystem::path path = process_tmp_dir() / name;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path.string();
}

/// TempDir()/lmp-<pid>/<name>/ as an empty directory, with the trailing
/// slash.
inline std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir = process_tmp_dir() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string() + "/";
}

}  // namespace lmp::test
