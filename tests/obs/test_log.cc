// Unit tests of the structured JSON-lines logger (obs/log.h): sink
// gating, line shape, and the POLARDRAW_LOG sink paths (a file, an
// unopenable path, standard error).
#include "obs/log.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_writer.h"

namespace polardraw::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

/// Tests share the process-global logger; each starts from a fresh sink
/// and leaves the logger disabled.
class LoggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger& lg = Logger::global();
    lg.set_sink(&sink_);
    base_emitted_ = lg.emitted_total();
  }
  void TearDown() override { Logger::global().set_sink(nullptr); }

  std::uint64_t emitted() const {
    return Logger::global().emitted_total() - base_emitted_;
  }

  std::ostringstream sink_;
  std::uint64_t base_emitted_ = 0;
};

TEST_F(LoggerTest, DisabledWithoutSink) {
  Logger& lg = Logger::global();
  lg.set_sink(nullptr);
  EXPECT_FALSE(lg.enabled());
  lg.log(LogLevel::kWarn, 1.0, "dropped.event");
  EXPECT_EQ(emitted(), 0u);
  lg.set_sink(&sink_);
  EXPECT_TRUE(lg.enabled());
}

TEST_F(LoggerTest, EmitsOneCompactJsonLinePerEvent) {
  Logger& lg = Logger::global();
  lg.log(LogLevel::kInfo, 12.5, "test.event", [](JsonWriter& w) {
    w.kv("session", std::uint64_t{7});
    w.kv("depth", 3.0);
  });
  lg.log(LogLevel::kWarn, 13.0, "test.other");
  const auto lines = lines_of(sink_.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            R"({"t_s":12.5,"level":"info","event":"test.event",)"
            R"("session":7,"depth":3})");
  EXPECT_EQ(lines[1], R"({"t_s":13,"level":"warn","event":"test.other"})");
  EXPECT_EQ(emitted(), 2u);
}

TEST_F(LoggerTest, SinkPathWritesToAFileOrStandardError) {
  namespace fs = std::filesystem;
  Logger& lg = Logger::global();
  const char* line = R"({"t_s":2.5,"level":"info","event":"test.path"})";

  // A file path: the logger appends one line per event and closes the
  // file when the sink is replaced.
  const fs::path file = fs::path(::testing::TempDir()) /
                        "log_sink_SinkPathWritesToAFileOrStandardError.jsonl";
  fs::remove(file);
  lg.set_sink_path(file.string());
  ASSERT_TRUE(lg.enabled());
  lg.log(LogLevel::kInfo, 2.5, "test.path");
  lg.set_sink(nullptr);
  lg.log(LogLevel::kInfo, 3.0, "after.close");
  std::ifstream in(file);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, std::string(line) + "\n");
  fs::remove(file);

  // A path that cannot be opened for writing leaves the logger off and
  // names the path on standard error.
  ::testing::internal::CaptureStderr();
  lg.set_sink_path(::testing::TempDir());
  const std::string complaint = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(lg.enabled());
  EXPECT_NE(complaint.find(::testing::TempDir()), std::string::npos)
      << complaint;
  EXPECT_EQ(std::count(complaint.begin(), complaint.end(), '\n'), 1)
      << complaint;

  // "-" and "stderr" name standard error.
  for (const char* name : {"-", "stderr"}) {
    ::testing::internal::CaptureStderr();
    lg.set_sink_path(name);
    EXPECT_TRUE(lg.enabled()) << name;
    lg.log(LogLevel::kInfo, 2.5, "test.path");
    lg.set_sink(nullptr);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              std::string(line) + "\n")
        << name;
  }
  EXPECT_EQ(emitted(), 3u);
}

TEST(LogLevelName, WireNames) {
  EXPECT_EQ(log_level_name(LogLevel::kInfo), "info");
  EXPECT_EQ(log_level_name(LogLevel::kWarn), "warn");
}

}  // namespace
}  // namespace polardraw::obs
