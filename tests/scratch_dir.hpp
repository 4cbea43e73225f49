// Per-test scratch directories for tests that write files.
//
// scratch_dir() returns <testing::TempDir()>imx_<pid>_<Suite>.<Test>/,
// creating it on first use. The pid and the test name make it unique, so
// tests never share a path: not across tests, not across concurrent ctest
// runs of the same binary. When the test ends without a failure the
// directory is removed with everything in it; a failing test keeps its
// files for inspection.
#ifndef IMX_TESTS_SCRATCH_DIR_HPP
#define IMX_TESTS_SCRATCH_DIR_HPP

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace imx::test {

namespace detail {

inline std::string scratch_dir_for(const ::testing::TestInfo& info) {
    std::string name = std::string(info.test_suite_name()) + "." + info.name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    return ::testing::TempDir() + "imx_" + std::to_string(::getpid()) + "_" +
           name + "/";
}

class ScratchDirCleanup final : public ::testing::EmptyTestEventListener {
    void OnTestEnd(const ::testing::TestInfo& info) override {
        if (info.result()->Failed()) return;
        std::error_code ignored;
        std::filesystem::remove_all(scratch_dir_for(info), ignored);
    }
};

}  // namespace detail

/// The running test's own scratch directory, with a trailing '/'.
inline std::string scratch_dir() {
    static const bool cleanup_registered = [] {
        ::testing::UnitTest::GetInstance()->listeners().Append(
            new detail::ScratchDirCleanup);
        return true;
    }();
    (void)cleanup_registered;
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (info == nullptr) {
        throw std::logic_error("scratch_dir() called outside a test");
    }
    const std::string dir = detail::scratch_dir_for(*info);
    std::filesystem::create_directories(dir);
    return dir;
}

}  // namespace imx::test

#endif  // IMX_TESTS_SCRATCH_DIR_HPP
