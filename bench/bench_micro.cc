// Micro-benchmarks (google-benchmark): component throughput of the
// pipeline stages, plus the DESIGN.md ablation comparing hash-first
// template grouping against canonical-string comparison.
//
// A custom main handles `--json=<path>` (google-benchmark rejects flags
// it does not know): after the registered benchmarks run, it measures
// the parse stage with the parse cache on and off over a
// template-heavy generator workload and writes the machine-readable
// comparison (records/sec, ns/record, hit rate, peak RSS) to the path —
// CI checks this in as BENCH_parse.json.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "bench_common.h"
#include "catalog/schema.h"
#include "core/pipeline.h"
#include "core/template_store.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "log/log_stream.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/skeleton.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace sqlog;

const char* kStatements[] = {
    "SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = 587722981742123456",
    "SELECT p.objID, p.ra, p.dec, p.r FROM fGetObjFromRect(180.0, 0.0, 180.5, 0.5) n, "
    "photoPrimary p WHERE n.objID = p.objID and r between 14 and 17",
    "SELECT g.objID, g.ra, g.dec, g.u, g.g, g.r, g.i, g.z, s.specObjID FROM photoObjAll "
    "as g JOIN fGetNearbyObjEq(180.0, 0.0, 1.0) as gn ON g.objID = gn.objID LEFT OUTER "
    "JOIN specObj s ON s.bestObjID = gn.objID",
    "SELECT count(*) FROM photoPrimary WHERE htmid >= 1099511627776 and htmid <= "
    "1099511644160",
};

void BM_Lex(benchmark::State& state) {
  const char* sql = kStatements[state.range(0)];
  for (auto _ : state) {
    auto tokens = sql::Lex(sql);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Lex)->DenseRange(0, 3);

void BM_Parse(benchmark::State& state) {
  const char* sql = kStatements[state.range(0)];
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parse)->DenseRange(0, 3);

void BM_Analyze(benchmark::State& state) {
  const char* sql = kStatements[state.range(0)];
  for (auto _ : state) {
    auto facts = sql::ParseAndAnalyze(sql);
    benchmark::DoNotOptimize(facts);
  }
}
BENCHMARK(BM_Analyze)->DenseRange(0, 3);

void BM_SkeletonPrint(benchmark::State& state) {
  auto stmt = sql::ParseSelect(kStatements[state.range(0)]);
  sql::PrintOptions opts;
  opts.placeholders = true;
  for (auto _ : state) {
    std::string printed = Print(*stmt.value(), opts);
    benchmark::DoNotOptimize(printed);
  }
}
BENCHMARK(BM_SkeletonPrint)->DenseRange(0, 3);

/// Ablation (DESIGN.md decision 1): template identity via fingerprint
/// hash with bucket verification...
void BM_TemplateGroupingHashFirst(benchmark::State& state) {
  std::vector<sql::QueryFacts> facts;
  for (int i = 0; i < 256; ++i) {
    auto f = sql::ParseAndAnalyze(
        StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = %d", i));
    facts.push_back(std::move(f.value()));
  }
  for (auto _ : state) {
    core::TemplateStore store;
    for (size_t i = 0; i < facts.size(); ++i) {
      benchmark::DoNotOptimize(store.Intern(facts[i].shared, i));
    }
  }
}
BENCHMARK(BM_TemplateGroupingHashFirst);

/// ...versus grouping by the full canonical skeleton string.
void BM_TemplateGroupingStringKey(benchmark::State& state) {
  std::vector<sql::QueryFacts> facts;
  for (int i = 0; i < 256; ++i) {
    auto f = sql::ParseAndAnalyze(
        StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objID = %d", i));
    facts.push_back(std::move(f.value()));
  }
  for (auto _ : state) {
    std::map<std::string, uint64_t> store;
    uint64_t next_id = 0;
    for (const auto& f : facts) {
      const sql::QueryTemplate& t = f.shared->tmpl;
      std::string key = t.ssc + "|" + t.sfc + "|" + t.swc + "|" + t.tail;
      auto [it, inserted] = store.try_emplace(key, next_id);
      if (inserted) ++next_id;
      benchmark::DoNotOptimize(it->second);
    }
  }
}
BENCHMARK(BM_TemplateGroupingStringKey);

/// A slice of the study log shared by the byte-scan benchmarks below:
/// big enough to time in milliseconds, small enough per iteration.
const log::QueryLog& KernelBenchLog() {
  static log::QueryLog log = [] {
    log::GeneratorConfig config;
    config.target_statements = 20000;
    return log::GenerateLog(config);
  }();
  return log;
}

/// Lex + normalized key over the study slice — the per-statement work
/// of the parse cache before its lookup (the lexer's run skips and
/// quote scans, plus the case fold behind the key).
void BM_LexKeyKernels(benchmark::State& state) {
  const log::QueryLog& log = KernelBenchLog();
  std::string key;
  for (auto _ : state) {
    for (const auto& record : log.records()) {
      auto tokens = sql::Lex(record.statement);
      if (!tokens.ok()) continue;
      key.clear();
      sql::AppendNormalizedKey(tokens.value(), &key);
      benchmark::DoNotOptimize(key.data());
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(log.size()));
  }
}
BENCHMARK(BM_LexKeyKernels)->Unit(benchmark::kMillisecond);

/// The CSV reader over the study slice written to a temp file:
/// LogReader::ReadRecord at its default chunk size, so line ends, field
/// splits and decoding into the record are all timed (after the first
/// pass the file is in the page cache).
void BM_CsvReadKernels(benchmark::State& state) {
  const log::QueryLog& slice = KernelBenchLog();
  const std::string path = (std::filesystem::temp_directory_path() /
                            StrFormat("sqlog_bench_micro_%d.csv", static_cast<int>(::getpid())))
                               .string();
  if (!log::LogIo::WriteFile(slice, path).ok()) {
    state.SkipWithError("cannot write the serialized slice");
    return;
  }
  const auto bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  log::LogRecord record;
  for (auto _ : state) {
    log::LogReader reader;
    bool eof = !reader.Open(path).ok();
    while (!eof && reader.ReadRecord(&record, &eof).ok()) {
    }
    if (reader.records_read() != slice.size()) {
      state.SkipWithError("the reader did not return every record");
      break;
    }
    benchmark::DoNotOptimize(record.statement.data());
    state.SetBytesProcessed(state.bytes_processed() + bytes);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CsvReadKernels)->Unit(benchmark::kMillisecond);

void BM_GenerateLog(benchmark::State& state) {
  for (auto _ : state) {
    log::GeneratorConfig config;
    config.target_statements = static_cast<size_t>(state.range(0));
    log::QueryLog log = log::GenerateLog(config);
    benchmark::DoNotOptimize(log);
    state.SetItemsProcessed(state.items_processed() + static_cast<int64_t>(log.size()));
  }
}
BENCHMARK(BM_GenerateLog)->Arg(5000)->Arg(20000);

/// End-to-end pipeline throughput. Second argument is the thread count
/// handed to PipelineOptions::num_threads (1 = serial path), sweeping
/// the parallel engine at fixed input size — compare the num_threads=1
/// and num_threads=4 rows for the end-to-end speedup.
void BM_FullPipeline(benchmark::State& state) {
  log::GeneratorConfig config;
  config.target_statements = static_cast<size_t>(state.range(0));
  log::QueryLog raw = log::GenerateLog(config);
  catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    core::Pipeline pipeline(options);
    pipeline.SetSchema(&schema);
    auto result = pipeline.Run(raw);
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() + static_cast<int64_t>(raw.size()));
  }
}
BENCHMARK(BM_FullPipeline)
    ->Args({5000, 1})
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Args({20000, 8})
    ->Unit(benchmark::kMillisecond);

/// Parse-stage throughput with the parse cache on vs off
/// (`sqlog --no-parse-cache` is the same switch).
void BM_ParseLog(benchmark::State& state) {
  static log::QueryLog raw = [] {
    log::GeneratorConfig config;
    config.target_statements = 20000;
    return log::GenerateLog(config);
  }();
  core::ParseCacheOptions options;
  options.enabled = state.range(0) != 0;
  for (auto _ : state) {
    core::TemplateStore store;
    core::ParsedLog parsed = core::ParseLog(raw, store, nullptr, 0, options);
    benchmark::DoNotOptimize(parsed);
    state.SetItemsProcessed(state.items_processed() + static_cast<int64_t>(raw.size()));
  }
}
BENCHMARK(BM_ParseLog)
    ->Arg(0)  // cache off: every SELECT takes the full parser
    ->Arg(1)  // cache on: repeats lex + key lookup only
    ->Unit(benchmark::kMillisecond);

struct ParseMeasurement {
  double seconds = 0.0;
  double records_per_sec = 0.0;
  double ns_per_record = 0.0;
  core::ParseStats stats;
};

ParseMeasurement MeasureParse(const log::QueryLog& raw, bool cache_enabled) {
  core::ParseCacheOptions options;
  options.enabled = cache_enabled;
  // Warm-up pass (page in the records), then the timed pass.
  {
    core::TemplateStore store;
    core::ParsedLog parsed = core::ParseLog(raw, store, nullptr, 0, options);
    benchmark::DoNotOptimize(parsed);
  }
  ParseMeasurement m;
  Timer timer;
  core::TemplateStore store;
  core::ParsedLog parsed = core::ParseLog(raw, store, nullptr, 0, options);
  m.seconds = timer.ElapsedSeconds();
  m.stats = parsed.parse_stats;
  m.records_per_sec = bench::SafeRate(static_cast<double>(raw.size()), m.seconds);
  m.ns_per_record = bench::SafeDiv(m.seconds * 1e9, static_cast<double>(raw.size()));
  return m;
}

int WriteParseJson(const std::string& path) {
  log::QueryLog raw = bench::GenerateStudyLog();
  ParseMeasurement uncached = MeasureParse(raw, /*cache_enabled=*/false);
  ParseMeasurement cached = MeasureParse(raw, /*cache_enabled=*/true);
  const uint64_t keyed = cached.stats.cache_hits + cached.stats.cache_misses +
                         cached.stats.uncacheable_hits + cached.stats.failure_hits;
  const double hit_rate =
      keyed == 0 ? 0.0
                 : static_cast<double>(cached.stats.parses_avoided()) /
                       static_cast<double>(keyed);

  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"parse_avoidance\",\n");
  std::fprintf(out, "  \"records\": %zu,\n", raw.size());
  std::fprintf(out,
               "  \"uncached\": {\"seconds\": %.6f, \"records_per_sec\": %.1f, "
               "\"ns_per_record\": %.1f, \"full_parses\": %llu},\n",
               uncached.seconds, uncached.records_per_sec, uncached.ns_per_record,
               static_cast<unsigned long long>(uncached.stats.full_parses));
  std::fprintf(out,
               "  \"cached\": {\"seconds\": %.6f, \"records_per_sec\": %.1f, "
               "\"ns_per_record\": %.1f, \"full_parses\": %llu, "
               "\"cache_hit_rate\": %.4f, \"parses_avoided\": %llu, "
               "\"templates_cached\": %llu, \"cache_bytes\": %llu},\n",
               cached.seconds, cached.records_per_sec, cached.ns_per_record,
               static_cast<unsigned long long>(cached.stats.full_parses), hit_rate,
               static_cast<unsigned long long>(cached.stats.parses_avoided()),
               static_cast<unsigned long long>(cached.stats.templates_cached),
               static_cast<unsigned long long>(cached.stats.cache_bytes));
  const double speedup = bench::SafeDiv(uncached.seconds, cached.seconds);
  std::fprintf(out, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(out, "  \"peak_rss_bytes\": %zu\n}\n", bench::SelfPeakRssBytes());
  std::fclose(out);
  std::printf("wrote %s (parse speedup %.2fx, hit rate %.1f%%)\n", path.c_str(), speedup,
              hit_rate * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = sqlog::bench::StripJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) return WriteParseJson(json_path);
  return 0;
}
