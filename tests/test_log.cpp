// Structured JSONL logging (ctest label: log): line format, the level
// filter and the crash ring (suppressed lines flushed by kFatal /
// flush_ring), JSON escaping, ring overflow ordering, and concurrent
// writers. Uses local Log instances with file sinks so tests never fight
// over the global logger or spam the test harness's stderr.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"

namespace {

using namespace fixedpart;

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(LogLevelNames, RoundTrip) {
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kDebug), "debug");
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kFatal), "fatal");
  EXPECT_EQ(obs::log_level_from_string("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::log_level_from_string("warning"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::log_level_from_string("bogus"), obs::LogLevel::kInfo);
}

TEST(Log, LineCarriesTimestampsLevelSubsystemAndFields) {
  const std::string path = temp_path("log_format.jsonl");
  {
    std::ofstream truncate(path, std::ios::trunc);
  }
  obs::Log log;
  log.set_sink_path(path);
  log.write(obs::LogLevel::kInfo, "svc", "job finished",
            {{"id", "job7"},
             {"attempts", 2},
             {"seconds", 0.25},
             {"truncated", false}});
  log.flush();

  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"ts_ms\": "), std::string::npos);
  EXPECT_NE(line.find("\"mono_ms\": "), std::string::npos);
  EXPECT_NE(line.find("\"level\": \"info\""), std::string::npos);
  EXPECT_NE(line.find("\"sub\": \"svc\""), std::string::npos);
  EXPECT_NE(line.find("\"msg\": \"job finished\""), std::string::npos);
  EXPECT_NE(line.find("\"id\": \"job7\""), std::string::npos);
  EXPECT_NE(line.find("\"attempts\": 2"), std::string::npos);
  EXPECT_NE(line.find("\"seconds\": 0.25"), std::string::npos);
  EXPECT_NE(line.find("\"truncated\": false"), std::string::npos);
}

TEST(Log, LevelFilterSuppressesSinkButNotRing) {
  const std::string path = temp_path("log_filter.jsonl");
  {
    std::ofstream truncate(path, std::ios::trunc);
  }
  obs::Log log;
  log.set_sink_path(path);
  log.set_min_level(obs::LogLevel::kWarn);
  log.write(obs::LogLevel::kDebug, "t", "suppressed debug");
  log.write(obs::LogLevel::kInfo, "t", "suppressed info");
  log.write(obs::LogLevel::kWarn, "t", "visible warn");
  log.flush();

  EXPECT_EQ(file_lines(path).size(), 1u);
  EXPECT_EQ(log.lines_written(), 1u);
  EXPECT_EQ(log.ring_lines().size(), 3u);  // the ring keeps everything

  // A fatal line dumps the suppressed context, oldest first.
  log.write(obs::LogLevel::kFatal, "t", "boom");
  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("visible warn"), std::string::npos);
  EXPECT_NE(lines[1].find("boom"), std::string::npos);
  EXPECT_NE(lines[2].find("suppressed debug"), std::string::npos);
  EXPECT_NE(lines[3].find("suppressed info"), std::string::npos);
}

TEST(Log, FlushRingDumpsSuppressedLinesOnce) {
  const std::string path = temp_path("log_flush_ring.jsonl");
  {
    std::ofstream truncate(path, std::ios::trunc);
  }
  obs::Log log;
  log.set_sink_path(path);
  log.set_min_level(obs::LogLevel::kError);
  log.write(obs::LogLevel::kInfo, "t", "ctx1");
  log.write(obs::LogLevel::kInfo, "t", "ctx2");
  log.flush_ring();
  log.flush_ring();  // already-flushed lines are not re-emitted
  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("ctx1"), std::string::npos);
  EXPECT_NE(lines[1].find("ctx2"), std::string::npos);
}

TEST(Log, EscapesControlCharactersAndQuotes) {
  obs::Log log;
  log.set_min_level(obs::LogLevel::kFatal);  // ring only, no stderr noise
  log.write(obs::LogLevel::kInfo, "t", "say \"hi\"\nback\\slash\ttab",
            {{"k", std::string("\x01")}});
  const auto lines = log.ring_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("say \\\"hi\\\"\\nback\\\\slash\\ttab"),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"k\": \"\\u0001\""), std::string::npos);
  // No raw control bytes may survive into the line.
  for (const char c : lines[0]) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Log, NonFiniteDoublesStayParseable) {
  obs::Log log;
  log.set_min_level(obs::LogLevel::kFatal);
  log.write(obs::LogLevel::kInfo, "t", "m",
            {{"nan", std::numeric_limits<double>::quiet_NaN()},
             {"inf", std::numeric_limits<double>::infinity()}});
  const auto lines = log.ring_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"nan\": \"nan\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"inf\": \"inf\""), std::string::npos);
}

TEST(Log, RingOverflowKeepsNewestOldestFirst) {
  obs::Log log;
  log.set_min_level(obs::LogLevel::kFatal);
  const std::size_t total = obs::Log::kRingCapacity + 40;
  for (std::size_t i = 0; i < total; ++i) {
    log.write(obs::LogLevel::kInfo, "t", "line" + std::to_string(i));
  }
  const auto lines = log.ring_lines();
  ASSERT_EQ(lines.size(), obs::Log::kRingCapacity);
  // Oldest surviving line is #40, newest is #(total-1), in order.
  EXPECT_NE(lines.front().find("\"msg\": \"line40\""), std::string::npos);
  EXPECT_NE(lines.back().find(
                "\"msg\": \"line" + std::to_string(total - 1) + "\""),
            std::string::npos);
}

TEST(Log, ConcurrentWritersNeverTearLines) {
  const std::string path = temp_path("log_concurrent.jsonl");
  {
    std::ofstream truncate(path, std::ios::trunc);
  }
  obs::Log log;
  log.set_sink_path(path);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::LogLevel level =
            i % 2 == 0 ? obs::LogLevel::kInfo : obs::LogLevel::kWarn;
        log.write(level, "t", "m", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  log.flush();

  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.lines_written(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (const std::string& line : lines) {
    // Every line is a complete, well-delimited object (no interleaving).
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"msg\": \"m\""), std::string::npos);
  }
}

}  // namespace
