// Memory-budget smoke test for the streaming ingestion path: a log of
// ~1M records (far larger than the allowed RSS) is cleaned end to end
// with Pipeline::RunStreaming, and the process's peak RSS must stay
// under a fixed cap — proving peak memory is bounded by the batch size
// plus the distinct-statement state, not the log length. The in-memory
// path would hold the raw text (plus its time-sorted copy) and blow
// straight through the cap.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/log_stream.h"
#include "log/record.h"

namespace sqlog {
namespace {

size_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
#ifdef __APPLE__
  return static_cast<size_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // kilobytes
#endif
}

constexpr size_t kBursts = 1000;
constexpr size_t kRecordsPerBurst = 1000;  // kBursts * kRecordsPerBurst = 1M
constexpr size_t kUsers = 20;

// Writes the giant log incrementally — the writer's buffer is bounded,
// so generation itself cannot inflate the peak RSS the test measures.
void WriteGiantLog(const std::string& path, uint64_t* bytes_written) {
  log::LogWriterOptions options;
  options.renumber = true;
  log::LogWriter writer(options);
  ASSERT_TRUE(writer.Open(path).ok());
  log::LogRecord record;
  record.row_count = 42;
  for (size_t burst = 0; burst < kBursts; ++burst) {
    record.user = "user_" + std::to_string(burst % kUsers);
    record.session = record.user + "#1";
    // One distinct statement per burst; repeats land within the dedup
    // window, so each burst collapses to its first record.
    record.statement =
        "SELECT object_id, right_ascension, declination, magnitude_r "
        "FROM photo_objects_" +
        std::to_string(burst) + " WHERE object_id = " + std::to_string(burst * 7) +
        " AND magnitude_r < 22.5";
    for (size_t j = 0; j < kRecordsPerBurst; ++j) {
      record.timestamp_ms =
          static_cast<int64_t>(burst) * 5000 + static_cast<int64_t>(j) * 4;
      ASSERT_TRUE(writer.Append(record).ok());
    }
  }
  ASSERT_TRUE(writer.Close().ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  *bytes_written = static_cast<uint64_t>(in.tellg());
}

TEST(MemoryBudgetTest, StreamingPipelinePeakRssStaysUnderCap) {
  const std::string input_path = ::testing::TempDir() + "/memory_budget_input.csv";
  const std::string clean_path = ::testing::TempDir() + "/memory_budget_clean.csv";
  const std::string removal_path = ::testing::TempDir() + "/memory_budget_removal.csv";

  uint64_t input_bytes = 0;
  WriteGiantLog(input_path, &input_bytes);
  ASSERT_GT(input_bytes, 100ull << 20) << "input must dwarf the RSS cap";

  static catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.batch_size = 4096;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto run = pipeline.RunStreaming(input_path, clean_path, removal_path);
  std::remove(input_path.c_str());
  std::remove(clean_path.c_str());
  std::remove(removal_path.c_str());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Sanity: the whole log went through and the bursts collapsed.
  EXPECT_EQ(run->stats.original_size, kBursts * kRecordsPerBurst);
  EXPECT_EQ(run->stats.after_dedup_size, kBursts);
  EXPECT_EQ(run->stats.select_count, kBursts);
  EXPECT_EQ(run->stats.syntax_error_count, 0u);

  const size_t peak = PeakRssBytes();
  constexpr size_t kCapBytes = 256ull << 20;
  EXPECT_LT(peak, kCapBytes) << "streaming pipeline peak RSS "
                             << (peak >> 20) << " MiB exceeds the "
                             << (kCapBytes >> 20) << " MiB budget";
  // The sharper claim: peak RSS stays below the raw input size itself.
  EXPECT_LT(peak, input_bytes);
}

}  // namespace
}  // namespace sqlog
