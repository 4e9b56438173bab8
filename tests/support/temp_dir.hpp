// A private scratch directory per test process.
//
// Store, service, net and cluster fixtures save bank/index files under
// fixed names. Written straight into ::testing::TempDir(), two processes
// of one test binary running side by side overwrite each other's files
// and die on a truncated mapping. Every fixture writes here instead: one
// mkdtemp directory per process under ::testing::TempDir(), removed with
// its contents when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace psc::test {

class ProcessTempDir {
 public:
  ProcessTempDir() {
    std::string pattern = ::testing::TempDir();
    if (pattern.empty() || pattern.back() != '/') pattern += '/';
    pattern += "psc_test_XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " +
                               ::testing::TempDir());
    }
    path_ = pattern;
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// This process's scratch directory (no trailing slash), created on
/// first use.
inline const std::string& temp_dir() {
  static const ProcessTempDir dir;
  return dir.path();
}

}  // namespace psc::test
