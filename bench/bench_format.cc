// Binary log format bench: size and zero-parse ingest rate of `.sqb`
// against the CSV baseline, on the standard study log.
//
// Ingest = read every record from disk and parse it into the template
// store, the hot pass-1 loop of the streaming pipeline. The CSV run
// rides the parse cache, keyed by each statement's normalized key (the
// BENCH_parse.json "cached" configuration); the `.sqb` run additionally
// seeds that cache from the file's template dictionary and rides the
// per-record shapes, so it neither parses nor lexes — the remaining
// cost is columnar decode + rendering facts from the constant spans.
//
//   ./build/bench/bench_format [--json=BENCH_format.json]
//
// Run it from the repository root: the JSON records the commit it ran
// on (`git rev-parse HEAD`, plus whether tracked files had uncommitted
// changes), the host's core count, the compiler and the build type.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/parse_cache.h"
#include "core/template_store.h"
#include "log/binlog.h"
#include "log/log_io.h"
#include "util/timer.h"

namespace sqlog {
namespace {

struct IngestResult {
  double seconds = 0;
  uint64_t records = 0;
  core::ParseStats parse_stats;
  double records_per_sec() const {
    return bench::SafeRate(static_cast<double>(records), seconds);
  }
};

/// Reads `path` and parses every record with the parse cache on —
/// the streaming pipeline's pass-1 loop. The `.sqb` run additionally
/// seeds the cache from the dictionary and rides the record shapes,
/// exactly like Pipeline::RunStreaming.
IngestResult IngestOnce(const std::string& path, bool is_sqb) {
  core::ParseCacheOptions cache_options;
  cache_options.enabled = true;
  core::TemplateStore store;
  core::StreamingParser parser(store, /*max_diagnostics=*/0, /*pool=*/nullptr,
                               cache_options);
  log::BinLogReader bin_reader;
  log::LogReader csv_reader;
  log::BinLogReader* bin = is_sqb ? &bin_reader : nullptr;
  log::RecordReader& reader = is_sqb ? static_cast<log::RecordReader&>(bin_reader)
                                     : static_cast<log::RecordReader&>(csv_reader);
  if (!reader.Open(path).ok()) {
    std::fprintf(stderr, "open failed: %s\n", path.c_str());
    std::abort();
  }
  if (bin != nullptr) {
    std::vector<std::unique_ptr<core::ParseCacheEntry>> seeds;
    seeds.reserve(bin->dictionary().size());
    for (const auto& entry : bin->dictionary()) {
      seeds.push_back(core::DeserializeStatementRecipe(entry.text, entry.recipe));
    }
    parser.SeedCache(std::move(seeds));
    parser.ReserveQueries(bin->record_count());
  }

  IngestResult result;
  Timer timer;
  std::vector<log::LogRecord> batch;
  // Shape pool: the live prefix (one per batched record) is overwritten
  // in place so the span vectors keep their capacity across batches.
  std::vector<log::RecordShape> shapes;
  size_t shape_count = 0;
  batch.reserve(4096);
  log::LogRecord record;
  bool eof = false;
  while (true) {
    Status status = reader.ReadRecord(&record, &eof);
    if (!status.ok()) {
      std::fprintf(stderr, "read failed: %s\n", status.ToString().c_str());
      std::abort();
    }
    if (eof) break;
    if (bin != nullptr) {
      if (shape_count == shapes.size()) shapes.emplace_back();
      shapes[shape_count++].CopyFrom(bin->last_shape());
    }
    batch.push_back(std::move(record));
    if (batch.size() == 4096) {
      parser.FeedBatch(batch, bin != nullptr ? &shapes : nullptr);
      batch.clear();
      shape_count = 0;
    }
  }
  parser.FeedBatch(batch, bin != nullptr ? &shapes : nullptr);
  core::ParsedLog parsed = parser.Finish();
  result.seconds = timer.ElapsedSeconds();
  result.records = reader.records_read();
  result.parse_stats = parsed.parse_stats;
  return result;
}

/// Best of five ingest runs — single-shot wall-clock on a shared box
/// swings ±10 %, which matters when the result gates an acceptance
/// ratio. Parse counters are identical across runs by determinism.
IngestResult Ingest(const std::string& path, bool is_sqb) {
  IngestResult best = IngestOnce(path, is_sqb);
  for (int i = 1; i < 5; ++i) {
    IngestResult run = IngestOnce(path, is_sqb);
    if (run.seconds < best.seconds) best = run;
  }
  return best;
}

/// The first line `command` prints, without its line break; empty when
/// it cannot run or prints nothing.
std::string FirstLineOf(const char* command) {
  std::FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return "";
  char line[256];
  const bool got = std::fgets(line, sizeof(line), pipe) != nullptr;
  pclose(pipe);
  std::string out = got ? line : "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Where the numbers come from: commit, uncommitted changes, cores,
/// compiler and build type, as one JSON object.
std::string ProvenanceJson() {
  std::string sha = FirstLineOf("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) sha = "unknown";
  const bool dirty =
      !FirstLineOf("git status --porcelain --untracked-files=no 2>/dev/null").empty();
  return StrFormat(
      "{\"git_sha\": \"%s\", \"git_dirty\": %s, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}",
      sha.c_str(), dirty ? "true" : "false", std::thread::hardware_concurrency(),
      Compiler().c_str(), SQLOG_BENCH_BUILD_TYPE);
}

size_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<size_t>(size);
}

}  // namespace
}  // namespace sqlog

int main(int argc, char** argv) {
  using namespace sqlog;
  std::string json_path = bench::StripJsonFlag(&argc, argv);
  bench::Banner("Binary log format: size + zero-parse ingest vs CSV",
                "format bench (companion to BENCH_parse.json)");

  const log::QueryLog raw = bench::GenerateStudyLog();
  const std::string csv_path = "/tmp/sqlog_bench_format.csv";
  const std::string sqb_path = "/tmp/sqlog_bench_format.sqb";
  Status write_csv = log::LogIo::WriteFile(raw, csv_path);
  Status write_sqb = log::LogIo::WriteFile(raw, sqb_path, log::LogFormat::kSqb,
                                           core::BuildStatementRecipe);
  if (!write_csv.ok() || !write_sqb.ok()) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }
  const size_t csv_bytes = FileSize(csv_path);
  const size_t sqb_bytes = FileSize(sqb_path);

  IngestResult csv = Ingest(csv_path, /*is_sqb=*/false);
  IngestResult sqb = Ingest(sqb_path, /*is_sqb=*/true);

  const double size_ratio = bench::SafeDiv(static_cast<double>(csv_bytes),
                                           static_cast<double>(sqb_bytes));
  const double speedup = bench::SafeDiv(sqb.records_per_sec(), csv.records_per_sec());

  std::printf("records               %s\n", bench::Thousands(csv.records).c_str());
  std::printf("csv bytes             %s\n", bench::Thousands(csv_bytes).c_str());
  std::printf("sqb bytes             %s  (%.2fx smaller)\n",
              bench::Thousands(sqb_bytes).c_str(), size_ratio);
  std::printf("csv ingest            %.3f s  %.0f rec/s  (%llu full parses)\n",
              csv.seconds, csv.records_per_sec(),
              (unsigned long long)csv.parse_stats.full_parses);
  std::printf("sqb ingest            %.3f s  %.0f rec/s  (%llu full parses)\n",
              sqb.seconds, sqb.records_per_sec(),
              (unsigned long long)sqb.parse_stats.full_parses);
  std::printf("ingest speedup        %.2fx\n", speedup);

  if (sqb.parse_stats.full_parses != 0) {
    std::fprintf(stderr, "FAIL: .sqb ingest ran %llu full parses (want 0)\n",
                 (unsigned long long)sqb.parse_stats.full_parses);
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) return 1;
    std::fprintf(out,
                 "{\n"
                 "  \"benchmark\": \"binary_log_format\",\n"
                 "  \"provenance\": %s,\n"
                 "  \"records\": %llu,\n"
                 "  \"csv\": {\"bytes\": %zu, \"seconds\": %.6f, "
                 "\"records_per_sec\": %.1f, \"full_parses\": %llu},\n"
                 "  \"sqb\": {\"bytes\": %zu, \"seconds\": %.6f, "
                 "\"records_per_sec\": %.1f, \"full_parses\": %llu},\n"
                 "  \"size_ratio\": %.3f,\n"
                 "  \"ingest_speedup\": %.3f,\n"
                 "  \"peak_rss_bytes\": %zu\n"
                 "}\n",
                 ProvenanceJson().c_str(), (unsigned long long)csv.records, csv_bytes,
                 csv.seconds,
                 csv.records_per_sec(),
                 (unsigned long long)csv.parse_stats.full_parses, sqb_bytes,
                 sqb.seconds, sqb.records_per_sec(),
                 (unsigned long long)sqb.parse_stats.full_parses, size_ratio,
                 speedup, bench::SelfPeakRssBytes());
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::remove(csv_path.c_str());
  std::remove(sqb_path.c_str());
  return 0;
}
