// Memory-budget test for the parsed state a run hands back: a
// ~60k-statement generator log, converted to `.sqb` and freed, runs
// through a 1-thread RunStreaming, and the heap the result retains —
// glibc's in-use plus mmapped bytes, before and after the call — must
// stay under a per-parsed-query cap. Each query owns only its clause
// texts and predicate values and points at its template's shared
// facts; a query that copies those facts (~1.3 KiB per query on this
// log) is far over the cap.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define SQLOG_HAVE_MALLINFO2 1
#endif

#include "catalog/schema.h"
#include "core/parse_cache.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "log/log_io.h"

namespace sqlog {
namespace {

#ifdef SQLOG_HAVE_MALLINFO2
size_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

TEST(ParsedStateBudgetTest, RetainedHeapPerParsedQueryStaysUnderCap) {
#ifndef SQLOG_HAVE_MALLINFO2
  GTEST_SKIP() << "needs glibc's mallinfo2()";
#else
#if defined(__x86_64__)
  EXPECT_LE(sizeof(core::ParsedQuery), 200u);
#endif
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/parsed_state_budget_input.sqb";
  const std::string clean = dir + "/parsed_state_budget_clean.csv";
  const std::string removal = dir + "/parsed_state_budget_removal.csv";
  {
    log::GeneratorConfig config;
    config.target_statements = 60000;
    const log::QueryLog raw = log::GenerateLog(config);
    ASSERT_TRUE(
        log::LogIo::WriteFile(raw, input, log::LogFormat::kSqb, core::BuildStatementRecipe)
            .ok());
  }
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.num_threads = 1;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);

  const size_t before = HeapInUseBytes();
  auto run = pipeline.RunStreaming(input, clean, removal);
  const size_t after = HeapInUseBytes();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const size_t queries = run->parsed.queries.size();
  ASSERT_GT(queries, 50000u);

  const size_t retained = after > before ? after - before : 0;
  const size_t per_query = retained / queries;
  constexpr size_t kCapBytesPerQuery = 800;
  EXPECT_LT(per_query, kCapBytesPerQuery)
      << "the run retains " << (retained >> 20) << " MiB of heap for " << queries
      << " parsed queries";
  std::printf("retained heap: %zu B over %zu parsed queries = %zu B per query\n", retained,
              queries, per_query);

  for (const std::string& path : {input, clean, removal}) std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace sqlog
