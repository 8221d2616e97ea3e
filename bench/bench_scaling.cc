// Scaling sweep: end-to-end records/sec across a threads × batch-size
// grid, with a per-stage wall-time breakdown (dedup, parse, mine,
// detect, sws, solve). The parse stage runs through StreamingParser fed
// in `batch_size` slices, so the sweep exercises the same sharded
// map-reduce + merge path the streaming ingester uses — the batch axis
// shows where merge overhead eats the shard parallelism, the thread
// axis shows which stages scale and which stay serial.
//
// `--json=<path>` writes the grid as BENCH_scaling.json for CI. Timing
// lives in this file, not in src/ (lint rule R2 keeps wall clocks out
// of the library); each configuration is best-of-N (SQLOG_BENCH_REPS,
// default 2) and every emitted rate goes through bench::SafeRate so a
// 0-record or 0-duration run yields 0, not `inf`.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/detector.h"
#include "core/pattern_miner.h"
#include "core/pipeline.h"
#include "core/solver.h"
#include "core/sws.h"
#include "core/template_store.h"
#include "log/record.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace sqlog;

struct StageSeconds {
  double dedup = 0.0;
  double parse = 0.0;
  double mine = 0.0;
  double detect = 0.0;
  double sws = 0.0;
  double solve = 0.0;
  size_t result_sink = 0;  // clean-log + SWS sizes, so stages stay observable

  double total() const { return dedup + parse + mine + detect + sws + solve; }
};

size_t Reps() {
  const char* env = std::getenv("SQLOG_BENCH_REPS");
  if (env != nullptr) {
    size_t v = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    if (v > 0) return v;
  }
  return 2;
}

/// One full staged run at the given thread count, feeding the parser in
/// `batch_size` slices. Stage options mirror the pipeline defaults; the
/// batch slices are copied out before the clock starts so the parse
/// number is FeedBatch + Finish, not memcpy.
StageSeconds RunOnce(const log::QueryLog& raw, const catalog::Schema& schema,
                     std::shared_ptr<const core::DetectorSet> detectors, size_t threads,
                     size_t batch_size) {
  const core::PipelineOptions defaults;
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);

  StageSeconds out;
  Timer timer;

  core::DedupStats dedup_stats;
  log::QueryLog pre_clean =
      core::RemoveDuplicates(raw, defaults.dedup, &dedup_stats, pool.get());
  out.dedup = timer.ElapsedSeconds();

  std::vector<std::vector<log::LogRecord>> batches;
  const std::vector<log::LogRecord>& records = pre_clean.records();
  for (size_t begin = 0; begin < records.size(); begin += batch_size) {
    size_t end = std::min(records.size(), begin + batch_size);
    batches.emplace_back(records.begin() + static_cast<ptrdiff_t>(begin),
                         records.begin() + static_cast<ptrdiff_t>(end));
  }

  core::TemplateStore store;
  timer.Reset();
  core::StreamingParser parser(store, /*max_diagnostics=*/0, pool.get());
  parser.ReserveQueries(records.size());
  for (const auto& batch : batches) parser.FeedBatch(batch);
  core::ParsedLog parsed = parser.Finish();
  out.parse = timer.ElapsedSeconds();

  timer.Reset();
  std::vector<core::Pattern> patterns = core::MinePatterns(parsed, defaults.miner, pool.get());
  core::SortByFrequency(patterns);
  out.mine = timer.ElapsedSeconds();

  timer.Reset();
  core::AntipatternReport report = core::DetectAntipatterns(
      parsed, store, &schema, defaults.detector, std::move(detectors), pool.get());
  out.detect = timer.ElapsedSeconds();

  timer.Reset();
  core::SwsReport sws = core::DetectSws(patterns, parsed.queries.size(), defaults.sws);
  out.sws = timer.ElapsedSeconds();

  timer.Reset();
  core::SolveOutcome outcome =
      core::SolveAntipatterns(pre_clean, parsed, report);
  out.solve = timer.ElapsedSeconds();

  // Keep the otherwise-unused results observable so nothing is elided.
  out.result_sink = sws.patterns.size() + outcome.clean_log.size();

  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::StripJsonFlag(&argc, argv);
  bench::Banner("Scaling sweep — records/sec vs threads × batch size",
                "paper Sec. 6.3 runtime discussion");

  log::QueryLog raw = bench::GenerateStudyLog();
  catalog::Schema schema = catalog::MakeSkyServerSchema();
  Result<std::shared_ptr<const core::DetectorSet>> detectors =
      core::DetectorSet::Resolve(core::PipelineOptions().detector);
  if (!detectors.ok()) {
    std::fprintf(stderr, "detector resolve failed: %s\n",
                 detectors.status().ToString().c_str());
    return 1;
  }

  const size_t reps = Reps();
  const size_t thread_axis[] = {1, 2, 4, 8};
  const size_t batch_axis[] = {1024, 16384, 1048576};

  struct Row {
    size_t threads;
    size_t batch_size;
    StageSeconds best;
  };
  std::vector<Row> rows;

  std::printf("%zu records, best of %zu runs per configuration\n\n", raw.size(), reps);
  std::printf("  %7s %9s %9s | %8s %8s %8s %8s %8s %8s | %12s\n", "threads", "batch",
              "seconds", "dedup", "parse", "mine", "detect", "sws", "solve", "records/s");
  for (size_t threads : thread_axis) {
    for (size_t batch_size : batch_axis) {
      StageSeconds best;
      for (size_t rep = 0; rep < reps; ++rep) {
        StageSeconds run = RunOnce(raw, schema, detectors.value(), threads, batch_size);
        if (rep == 0 || run.total() < best.total()) best = run;
      }
      rows.push_back({threads, batch_size, best});
      std::printf("  %7zu %9zu %8.2fs | %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f | %12.0f\n",
                  threads, batch_size, best.total(), best.dedup, best.parse, best.mine,
                  best.detect, best.sws, best.solve,
                  bench::SafeRate(static_cast<double>(raw.size()), best.total()));
    }
  }

  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"scaling\",\n");
    std::fprintf(out, "  \"records\": %zu,\n", raw.size());
    std::fprintf(out, "  \"best_of\": %zu,\n", reps);
    std::fprintf(out, "  \"configs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"threads\": %zu, \"batch_size\": %zu, \"seconds\": %.6f, "
                   "\"records_per_sec\": %.1f, \"stages\": {\"dedup\": %.6f, "
                   "\"parse\": %.6f, \"mine\": %.6f, \"detect\": %.6f, \"sws\": %.6f, "
                   "\"solve\": %.6f}}%s\n",
                   row.threads, row.batch_size, row.best.total(),
                   bench::SafeRate(static_cast<double>(raw.size()), row.best.total()),
                   row.best.dedup, row.best.parse, row.best.mine, row.best.detect,
                   row.best.sws, row.best.solve, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"peak_rss_bytes\": %zu\n}\n", bench::SelfPeakRssBytes());
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
