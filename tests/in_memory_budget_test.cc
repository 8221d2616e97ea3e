// Memory-budget test for the in-memory entry point: Pipeline::Run with
// the parse cache off full-parses every statement of a generator log,
// and the process's peak RSS (getrusage) must stay under a fixed cap.
// The parser drops each AST inside its parse shard as soon as the cache
// recipes were read from it; a parser that held every AST until the
// parse step merged its shards peaks well above the cap.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstddef>

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"

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

TEST(InMemoryBudgetTest, UncachedRunKeepsNoAstPastItsParseShard) {
  log::GeneratorConfig config;
  config.target_statements = 60000;
  const log::QueryLog raw = log::GenerateLog(config);
  const catalog::Schema schema = catalog::MakeSkyServerSchema();

  core::PipelineOptions options;
  options.parse_cache = false;
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto run = pipeline.Run(raw);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Sanity: every surviving SELECT went through the full parser.
  EXPECT_GT(run->stats.select_count, 50000u);
  EXPECT_EQ(run->parsed.parse_stats.cache_hits, 0u);
  EXPECT_GE(run->parsed.parse_stats.full_parses, run->stats.select_count);

  const size_t peak = PeakRssBytes();
  constexpr size_t kCapBytes = 256ull << 20;
  EXPECT_LT(peak, kCapBytes) << "in-memory Run peak RSS " << (peak >> 20)
                             << " MiB exceeds the " << (kCapBytes >> 20) << " MiB budget";
}

}  // namespace
}  // namespace sqlog
