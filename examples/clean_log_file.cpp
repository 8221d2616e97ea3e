// End-to-end file cleaning: read a CSV query log (or generate one with
// --generate), clean it, re-clean the clean log with a second run, and
// write <out>.clean.csv / <out>.removal.csv plus a statistics report —
// the tool an operator would run over their own log export.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sqlog.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.csv> [output-prefix]\n"
               "       %s --generate <n> <output-prefix>\n"
               "\n"
               "CSV format: seq,timestamp_ms,user,session,row_count,truth,statement\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage(argv[0]);
    return 2;
  }

  sqlog::log::QueryLog raw;
  std::string prefix = "cleaned";

  if (std::strcmp(argv[1], "--generate") == 0) {
    if (argc < 4) {
      Usage(argv[0]);
      return 2;
    }
    sqlog::log::GeneratorConfig config;
    config.target_statements = static_cast<size_t>(std::strtoull(argv[2], nullptr, 10));
    raw = sqlog::log::GenerateLog(config);
    prefix = argv[3];
    sqlog::Status wrote = sqlog::log::LogIo::WriteFile(raw, prefix + ".raw.csv");
    if (!wrote.ok()) {
      std::fprintf(stderr, "error: %s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s.raw.csv (%zu records)\n", prefix.c_str(), raw.size());
  } else {
    auto loaded = sqlog::log::LogIo::ReadFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    raw = std::move(loaded.value());
    if (argc > 2) prefix = argv[2];
  }

  sqlog::catalog::Schema schema = sqlog::catalog::MakeSkyServerSchema();
  sqlog::core::PipelineOptions options;
  options.num_threads = 0;  // operator batch job: use every core
  sqlog::core::Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  auto run = pipeline.Run(raw);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  sqlog::core::PipelineResult& result = *run;

  std::printf("%s\n", result.stats.ToTable().c_str());
  for (const auto& diagnostic : result.stats.parse_diagnostics) {
    std::fprintf(stderr, "  parse diagnostic (record %llu): %s\n",
                 (unsigned long long)diagnostic.record_seq, diagnostic.message.c_str());
  }

  // Re-cleaning (Sec. 5.5): a second run over the clean log solves what
  // the first one lined up, e.g. merged DS pairs forming fresh DW runs.
  // The statistics above and the removal log stay the first run's.
  auto reclean = pipeline.Run(result.clean_log);
  if (!reclean.ok()) {
    std::fprintf(stderr, "re-cleaning failed: %s\n", reclean.status().ToString().c_str());
    return 1;
  }
  const sqlog::log::QueryLog& clean_log = reclean->clean_log;
  std::printf("re-cleaning run: %zu -> %zu records\n", result.clean_log.size(),
              clean_log.size());

  sqlog::Status s = sqlog::log::LogIo::WriteFile(clean_log, prefix + ".clean.csv");
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  s = sqlog::log::LogIo::WriteFile(result.removal_log, prefix + ".removal.csv");
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s.clean.csv (%zu records) and %s.removal.csv (%zu records)\n",
              prefix.c_str(), clean_log.size(), prefix.c_str(), result.removal_log.size());
  return 0;
}
