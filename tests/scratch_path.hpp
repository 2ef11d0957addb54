// Scratch file paths for tests that write to disk.
//
// ctest runs every gtest case as its own process, often several at once
// (`ctest -j`). A fixed path under the shared temp directory would let two
// cases write, read and delete the same file concurrently, so every path
// handed out here lives in a directory unique to the calling process,
// created on first use and removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace respin::test {

/// `name` inside this process's private scratch directory. The file
/// itself is not created; the basename is kept verbatim.
inline std::string scratch_path(const std::string& name) {
  struct ScratchDir {
    ScratchDir() {
      std::string pattern = testing::TempDir() + "respin_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("cannot create scratch directory " + pattern);
      }
      path = pattern + "/";
    }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::string path;
  };
  static const ScratchDir dir;
  return dir.path + name;
}

}  // namespace respin::test
