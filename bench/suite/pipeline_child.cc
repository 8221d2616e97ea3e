// Child modes of the pipeline workloads (W1-W3): the untraced rep, the
// traced rep, and the oracle.
//
// The untraced rep calls exactly what users run: LogIo::ReadFile +
// Pipeline::Run + LogIo::WriteFile (W1) or Pipeline::RunStreaming
// (W2, W3). The traced rep re-composes the same run from the public
// calls Run/RunStreaming make (src/core/pipeline.cc), step for step, and
// times each call. Its outputs must be byte-identical to the untraced
// reps' or the parent fails the run, so a later change to pipeline.cc
// that this composition no longer mirrors fails loudly instead of
// misattributing time.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/detector.h"
#include "core/parse_cache.h"
#include "core/pattern_miner.h"
#include "core/pipeline.h"
#include "core/solver.h"
#include "core/sws.h"
#include "core/template_store.h"
#include "log/binlog.h"
#include "log/log_io.h"
#include "suite.h"
#include "trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sqlog::bench::suite {
namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

/// Layers whose busy time the traced pipeline run reports as `<layer>_s`.
constexpr const char* kPipelineLayers[] = {"log.read",   "log.write",   "core.copy",
                                           "core.dedup", "core.parse",  "core.mine",
                                           "core.detect", "core.sws",   "core.solve"};

const catalog::Schema& Schema() {
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();
  return schema;
}

core::PipelineOptions OptionsFor(const Workload& workload) {
  core::PipelineOptions options;
  options.num_threads = ThreadsFor(workload);
  if (workload.path == Path::kStreaming) {
    options.streaming = true;
    options.batch_size = workload.batch_size;
  }
  return options;
}

/// What Pipeline's MakePool builds: no pool at one thread, else one
/// worker less than the thread count (ParallelFor callers work too).
std::unique_ptr<util::ThreadPool> MakePool(size_t num_threads) {
  size_t threads = util::ResolveThreadCount(num_threads);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads - 1);
}

double FullParseRatio(const core::ParseStats& stats, uint64_t statements) {
  return SafeDiv(static_cast<double>(stats.full_parses), static_cast<double>(statements));
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

/// Times every call a RecordWriter receives; the streaming solver
/// appends from inside its own calls, so the write share can only be
/// measured at this seam.
class TimedWriter : public log::RecordWriter {
 public:
  TimedWriter(std::unique_ptr<log::RecordWriter> inner, double* seconds)
      : inner_(std::move(inner)), seconds_(seconds) {}

  Status Open(const std::string& path) override {
    return Time([&] { return inner_->Open(path); });
  }
  Status Append(const log::LogRecord& record) override {
    return Time([&] { return inner_->Append(record); });
  }
  Status Close() override {
    return Time([&] { return inner_->Close(); });
  }
  uint64_t records_written() const override { return inner_->records_written(); }

 private:
  template <typename Fn>
  Status Time(Fn&& fn) {
    auto start = Tracer::Now();
    Status status = fn();
    *seconds_ += Tracer::Seconds(start, Tracer::Now());
    return status;
  }

  std::unique_ptr<log::RecordWriter> inner_;
  double* seconds_;
};

void AddParseMetrics(const core::ParsedLog& parsed, const core::TemplateStore& templates,
                     uint64_t statements, Metrics& m) {
  const core::ParseStats& stats = parsed.parse_stats;
  m.emplace_back("core.parse.full_parses", static_cast<double>(stats.full_parses));
  m.emplace_back("core.parse.full_parse_ratio", FullParseRatio(stats, statements));
  m.emplace_back("core.parse.cache_hit_ratio",
                 SafeDiv(static_cast<double>(stats.cache_hits), static_cast<double>(statements)));
  m.emplace_back("core.parse.templates", static_cast<double>(templates.size()));
  m.emplace_back("core.parse.cache_mb", Mib(static_cast<double>(stats.cache_bytes)));
  m.emplace_back("core.parse.rss_mb", Mib(static_cast<double>(CurrentRssBytes())));
}

/// Mine, detect and SWS: AnalyzeParsed of pipeline.cc, one span each.
void TracedAnalyze(const core::PipelineOptions& options, util::ThreadPool* pool,
                   const core::ParsedLog& parsed, const core::TemplateStore& templates,
                   std::shared_ptr<const core::DetectorSet> detectors,
                   std::vector<core::Pattern>& patterns, core::AntipatternReport& report,
                   core::SwsReport& sws, Tracer& tracer, Metrics& m) {
  {
    ScopedLayer span(tracer, "core.mine");
    patterns = core::MinePatterns(parsed, options.miner, pool);
    core::SortByFrequency(patterns);
  }
  {
    ScopedLayer span(tracer, "core.detect");
    report = core::DetectAntipatterns(parsed, templates, &Schema(), options.detector,
                                      std::move(detectors), pool);
  }
  {
    ScopedLayer span(tracer, "core.sws");
    sws = core::DetectSws(patterns, parsed.queries.size(), options.sws);
  }
  uint64_t solvable = 0;
  for (const auto& instance : report.instances) {
    if (report.detectors->Solvable(instance)) ++solvable;
  }
  m.emplace_back("core.mine.patterns", static_cast<double>(patterns.size()));
  m.emplace_back("core.detect.instances", static_cast<double>(report.instances.size()));
  m.emplace_back("core.detect.solvable", static_cast<double>(solvable));
}

void AddSolveMetrics(const core::SolveStats& stats, Metrics& m) {
  m.emplace_back("core.solve.merged", static_cast<double>(stats.queries_merged));
  m.emplace_back("core.solve.rewritten_in_place",
                 static_cast<double>(stats.queries_rewritten_in_place));
  m.emplace_back("core.solve.rewrite_failures", static_cast<double>(stats.rewrite_failures));
}

/// What the entry points hand back to their caller. The untraced rep
/// frees it after its measured window, so the traced rep keeps it here
/// and frees it after its window too; everything else is local to the
/// traced functions and freed inside the window, as in pipeline.cc.
struct Retained {
  log::QueryLog raw;                // what LogIo::ReadFile returned (W1)
  core::PipelineResult run;         // Pipeline::Run's result (W1)
  core::StreamingRunResult stream;  // Pipeline::RunStreaming's result (W2, W3)
};

/// Pipeline::Run with LogIo around it, one span per stage call.
Status TracedRun(const Workload& workload, const Files& files, Tracer& tracer,
                 Retained& keep, Metrics& m) {
  const core::PipelineOptions options = OptionsFor(workload);
  {
    ScopedLayer span(tracer, "log.read");
    auto loaded = log::LogIo::ReadFile(files.input_csv);
    SQLOG_RETURN_IF_ERROR(loaded.status());
    keep.raw = std::move(loaded).value();
  }
  SQLOG_RETURN_IF_ERROR(core::ValidatePipelineOptions(options));
  auto detectors = core::DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR(detectors.status());
  std::unique_ptr<util::ThreadPool> pool = MakePool(options.num_threads);
  core::PipelineResult& result = keep.run;

  // Run deduplicates a copy of the raw log (use_user_metadata is on, so
  // the copy keeps its user/session columns) and frees it on return.
  log::QueryLog working;
  {
    ScopedLayer span(tracer, "core.copy");
    working = keep.raw;
  }
  core::DedupStats dedup_stats;
  {
    ScopedLayer span(tracer, "core.dedup");
    result.pre_clean = core::RemoveDuplicates(working, options.dedup, &dedup_stats, pool.get());
  }
  m.emplace_back("core.dedup.removed", static_cast<double>(dedup_stats.removed_count));
  m.emplace_back("core.dedup.rss_mb", Mib(static_cast<double>(CurrentRssBytes())));

  core::ParseCacheOptions cache_options;
  cache_options.enabled = options.parse_cache && !detectors.value()->AnyNeedsAst();
  {
    ScopedLayer span(tracer, "core.parse");
    result.parsed = core::ParseLog(result.pre_clean, result.templates, pool.get(),
                                   options.max_parse_diagnostics, cache_options);
  }
  AddParseMetrics(result.parsed, result.templates, result.pre_clean.size(), m);

  TracedAnalyze(options, pool.get(), result.parsed, result.templates, detectors.value(),
                result.patterns, result.antipatterns, result.sws, tracer, m);
  core::SolveOutcome outcome;
  {
    ScopedLayer span(tracer, "core.solve");
    outcome = core::SolveAntipatterns(result.pre_clean, result.parsed, result.antipatterns,
                                      options.detector.custom_rules);
    result.clean_log = std::move(outcome.clean_log);
    result.removal_log = std::move(outcome.removal_log);
  }
  AddSolveMetrics(outcome.stats, m);
  {
    ScopedLayer span(tracer, "core.copy");
    working = log::QueryLog();
  }
  {
    ScopedLayer span(tracer, "log.write");
    SQLOG_RETURN_IF_ERROR(log::LogIo::WriteFile(result.clean_log, files.clean));
    SQLOG_RETURN_IF_ERROR(log::LogIo::WriteFile(result.removal_log, files.removal));
  }
  m.emplace_back("log.bytes_in", static_cast<double>(FileBytes(files.input_csv)));
  return Status::OK();
}

/// Pipeline::RunStreaming, call for call. Reads and dedup decisions are
/// timed per record on one chained clock (each timestamp ends one slice
/// and starts the next), batches and stage calls get spans.
Status TracedStreaming(const Workload& workload, const Files& files, Tracer& tracer,
                       Retained& keep, Metrics& m) {
  const core::PipelineOptions options = OptionsFor(workload);
  const std::string& input = InputPath(files, workload);
  SQLOG_RETURN_IF_ERROR(core::ValidatePipelineOptions(options));
  auto detectors = core::DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR(detectors.status());
  std::unique_ptr<util::ThreadPool> pool = MakePool(options.num_threads);
  core::StreamingRunResult& result = keep.stream;

  // Pass 1: read + dedup + parse, one batch at a time.
  // Pass-local state lives in optionals so it can be freed at the end
  // inside its layer's span; RunStreaming frees it on return.
  std::optional<core::StreamingDeduper> deduper(std::in_place, options.dedup);
  core::ParseCacheOptions cache_options;
  cache_options.enabled = options.parse_cache;
  std::optional<core::StreamingParser> parser(std::in_place, result.templates,
                                              options.max_parse_diagnostics, pool.get(),
                                              cache_options);
  auto open_start = Tracer::Now();
  auto input_format = log::ResolveReadFormat(options.input_format, input);
  SQLOG_RETURN_IF_ERROR(input_format.status());
  std::unique_ptr<log::RecordReader> reader;
  log::BinLogReader* bin_reader = nullptr;
  if (*input_format == log::LogFormat::kSqb) {
    auto bin = std::make_unique<log::BinLogReader>();
    SQLOG_RETURN_IF_ERROR(bin->Open(input));
    auto seed_start = Tracer::Now();
    tracer.Layer("log.read", open_start, seed_start);
    std::vector<std::unique_ptr<core::ParseCacheEntry>> seeds;
    seeds.reserve(bin->dictionary().size());
    for (const auto& entry : bin->dictionary()) {
      seeds.push_back(core::DeserializeStatementRecipe(entry.text, entry.recipe));
    }
    parser->SeedCache(std::move(seeds));
    parser->ReserveQueries(bin->record_count());
    tracer.Layer("core.parse", seed_start, Tracer::Now(),
                 StrFormat("\"seeded_templates\": %zu", bin->dictionary().size()));
    bin_reader = bin.get();
    reader = std::move(bin);
  } else {
    reader = std::make_unique<log::LogReader>();
    SQLOG_RETURN_IF_ERROR(reader->Open(input));
    tracer.Layer("log.read", open_start, Tracer::Now());
  }

  std::vector<uint8_t> kept;
  std::vector<log::LogRecord> batch;
  std::vector<log::RecordShape> batch_shapes;
  size_t batch_shape_count = 0;
  batch.reserve(options.batch_size);
  log::LogRecord record;
  bool eof = false;
  bool have_previous = false;
  int64_t previous_ts = 0;
  uint64_t previous_seq = 0;
  uint64_t raw_count = 0;
  uint64_t pre_clean_count = 0;
  std::vector<double> batch_ms;
  double read_s = 0.0;
  double dedup_s = 0.0;
  auto batch_start = Tracer::Now();
  auto last = batch_start;
  auto feed = [&] {
    auto feed_start = Tracer::Now();
    tracer.Mark("ingest.batch", batch_start, feed_start,
                StrFormat("\"records\": %zu, \"read_ms\": %.3f, \"dedup_ms\": %.3f",
                          batch.size(), read_s * 1e3, dedup_s * 1e3));
    parser->FeedBatch(batch, bin_reader != nullptr ? &batch_shapes : nullptr);
    auto feed_end = Tracer::Now();
    tracer.Layer("core.parse", feed_start, feed_end,
                 StrFormat("\"records\": %zu", batch.size()));
    tracer.Counter("ingest", feed_end,
                   StrFormat("\"raw\": %llu, \"kept\": %llu", (unsigned long long)raw_count,
                             (unsigned long long)pre_clean_count));
    batch_ms.push_back(Tracer::Seconds(feed_start, feed_end) * 1e3);
    tracer.Accumulate("log.read", read_s);
    tracer.Accumulate("core.dedup", dedup_s);
    read_s = dedup_s = 0.0;
    batch.clear();
    batch_shape_count = 0;
    batch_start = last = Tracer::Now();
  };
  while (true) {
    Status read = reader->ReadRecord(&record, &eof);
    auto read_end = Tracer::Now();
    read_s += Tracer::Seconds(last, read_end);
    last = read_end;
    SQLOG_RETURN_IF_ERROR(read);
    if (eof) break;
    ++raw_count;
    if (have_previous &&
        (record.timestamp_ms < previous_ts ||
         (record.timestamp_ms == previous_ts && record.seq < previous_seq))) {
      return Status::InvalidArgument("streaming input is not (timestamp, seq)-ordered");
    }
    previous_ts = record.timestamp_ms;
    previous_seq = record.seq;
    have_previous = true;
    bool duplicate = deduper->IsDuplicate(record);
    kept.push_back(duplicate ? 0 : 1);
    if (!duplicate) {
      record.seq = pre_clean_count++;
      if (bin_reader != nullptr) {
        if (batch_shape_count == batch_shapes.size()) batch_shapes.emplace_back();
        batch_shapes[batch_shape_count++].CopyFrom(bin_reader->last_shape());
      }
      batch.push_back(std::move(record));
    }
    auto dedup_end = Tracer::Now();
    dedup_s += Tracer::Seconds(last, dedup_end);
    last = dedup_end;
    if (batch.size() >= options.batch_size) feed();
  }
  feed();  // the tail batch, possibly empty, exactly as RunStreaming feeds it
  {
    ScopedLayer span(tracer, "core.parse");
    batch.shrink_to_fit();
    result.parsed = parser->Finish();
  }
  m.emplace_back("core.dedup.removed", static_cast<double>(deduper->duplicates_seen()));
  m.emplace_back("core.dedup.rss_mb", Mib(static_cast<double>(CurrentRssBytes())));
  AddParseMetrics(result.parsed, result.templates, pre_clean_count, m);
  m.emplace_back("core.parse.batch_ms_p50", Percentile(batch_ms, 50));
  m.emplace_back("core.parse.batch_ms_p90", Percentile(batch_ms, 90));

  TracedAnalyze(options, pool.get(), result.parsed, result.templates, detectors.value(),
                result.patterns, result.antipatterns, result.sws, tracer, m);

  // Pass 2: re-read, skip pass-1 duplicates, solve and write.
  double write_s = 0.0;
  auto writer_for = [&](const std::string& path) {
    return std::make_unique<TimedWriter>(
        log::LogIo::MakeLogWriter(log::ResolveWriteFormat(options.output_format, path),
                                  /*renumber=*/true, core::BuildStatementRecipe),
        &write_s);
  };
  std::unique_ptr<log::RecordWriter> clean_writer = writer_for(files.clean);
  std::unique_ptr<log::RecordWriter> removal_writer = writer_for(files.removal);
  SQLOG_RETURN_IF_ERROR(clean_writer->Open(files.clean));
  SQLOG_RETURN_IF_ERROR(removal_writer->Open(files.removal));
  std::unique_ptr<core::StreamingSolver> solver;
  {
    ScopedLayer span(tracer, "core.solve");
    solver = std::make_unique<core::StreamingSolver>(result.parsed, result.antipatterns,
                                                     *clean_writer, *removal_writer);
  }
  auto reopen_start = Tracer::Now();
  auto second_reader = log::LogIo::OpenLogReader(input, *input_format);
  SQLOG_RETURN_IF_ERROR(second_reader.status());
  tracer.Layer("log.read", reopen_start, Tracer::Now());

  double solve_s = 0.0;
  uint64_t second_count = 0;
  batch_start = last = Tracer::Now();
  auto flush_slice = [&] {
    tracer.Mark("solve.batch", batch_start, last,
                StrFormat("\"read_ms\": %.3f, \"solve_ms\": %.3f, \"write_ms\": %.3f",
                          read_s * 1e3, solve_s * 1e3, write_s * 1e3));
    tracer.Accumulate("log.read", read_s);
    tracer.Accumulate("core.solve", solve_s);
    tracer.Accumulate("log.write", write_s);
    read_s = solve_s = write_s = 0.0;
    batch_start = last;
  };
  while (true) {
    Status read = (*second_reader)->ReadRecord(&record, &eof);
    auto read_end = Tracer::Now();
    read_s += Tracer::Seconds(last, read_end);
    last = read_end;
    SQLOG_RETURN_IF_ERROR(read);
    if (eof) break;
    if (second_count >= raw_count) return Status::Internal("input grew between passes");
    if (kept[second_count] != 0) {
      const double written_before = write_s;
      SQLOG_RETURN_IF_ERROR(solver->Feed(record));
      auto feed_end = Tracer::Now();
      solve_s += Tracer::Seconds(last, feed_end) - (write_s - written_before);
      last = feed_end;
    }
    if (++second_count % options.batch_size == 0) flush_slice();
  }
  if (second_count != raw_count) return Status::Internal("input shrank between passes");
  {
    const double written_before = write_s;
    auto finish_start = Tracer::Now();
    SQLOG_RETURN_IF_ERROR(solver->Finish());
    last = Tracer::Now();
    solve_s += Tracer::Seconds(finish_start, last) - (write_s - written_before);
  }
  SQLOG_RETURN_IF_ERROR(clean_writer->Close());
  SQLOG_RETURN_IF_ERROR(removal_writer->Close());
  last = Tracer::Now();
  flush_slice();
  AddSolveMetrics(solver->stats(), m);
  {
    ScopedLayer span(tracer, "core.solve");
    solver.reset();
  }
  {
    ScopedLayer span(tracer, "log.write");
    clean_writer.reset();
    removal_writer.reset();
  }
  {
    ScopedLayer span(tracer, "log.read");
    second_reader->reset();
    reader.reset();
  }
  {
    ScopedLayer span(tracer, "core.dedup");
    kept = std::vector<uint8_t>();
    deduper.reset();
  }
  {
    ScopedLayer span(tracer, "core.parse");
    batch_shapes = std::vector<log::RecordShape>();
    parser.reset();
  }
  m.emplace_back("log.bytes_in", 2.0 * static_cast<double>(FileBytes(input)));
  return Status::OK();
}

int TracedRep(const ChildArgs& args) {
  const Workload& workload = *args.workload;
  const Files files(args.dir, workload);
  Tracer tracer(args.trace_pid);
  Metrics m;
  Retained keep;
  const double cpu_start = CpuSeconds();
  auto start = Tracer::Now();
  Status status = workload.path == Path::kRun
                      ? TracedRun(workload, files, tracer, keep, m)
                      : TracedStreaming(workload, files, tracer, keep, m);
  auto end = Tracer::Now();
  const double cpu = CpuSeconds() - cpu_start;
  if (!status.ok()) return Fail("traced rep", status);
  const double wall = Tracer::Seconds(start, end);

  for (const char* layer : kPipelineLayers) {
    m.emplace_back(std::string(layer) + "_s", tracer.busy(layer));
  }
  m.emplace_back("log.bytes_out", static_cast<double>(FileBytes(files.clean) +
                                                      FileBytes(files.removal)));
  m.emplace_back("trace.wall_s", wall);
  m.emplace_back("trace.coverage", SafeDiv(tracer.covered(), wall));
  tracer.Counter("rss", end,
                 StrFormat("\"peak_mb\": %.1f", Mib(static_cast<double>(SelfPeakRssBytes()))));
  tracer.Counter("cpu", end, StrFormat("\"cpu_s\": %.3f", cpu));
  for (const auto& [name, value] : m) EmitMetric(name, value);
  Status written = tracer.WriteEvents(files.events);
  if (!written.ok()) return Fail("trace events", written);
  return 0;
}

}  // namespace

int PipelineRepChild(const ChildArgs& args) {
  if (args.traced) return TracedRep(args);
  const Workload& workload = *args.workload;
  const Files files(args.dir, workload);
  core::Pipeline pipeline(OptionsFor(workload));
  pipeline.SetSchema(&Schema());

  // The measured window runs from opening the input to closing both
  // outputs; destruction of the results happens after it, as in a CLI
  // that exits.
  uint64_t records = 0;
  uint64_t statements = 0;
  core::ParseStats parse_stats;
  double wall = 0.0;
  double cpu = 0.0;
  if (workload.path == Path::kRun) {
    const double cpu_start = CpuSeconds();
    Timer timer;
    auto raw = log::LogIo::ReadFile(files.input_csv);
    if (!raw.ok()) return Fail("read", raw.status());
    auto result = pipeline.Run(*raw);
    if (!result.ok()) return Fail("Pipeline::Run", result.status());
    Status clean = log::LogIo::WriteFile(result->clean_log, files.clean);
    Status removal = log::LogIo::WriteFile(result->removal_log, files.removal);
    wall = timer.ElapsedSeconds();
    cpu = CpuSeconds() - cpu_start;
    if (!clean.ok()) return Fail("write", clean);
    if (!removal.ok()) return Fail("write", removal);
    records = raw->size();
    statements = result->stats.after_dedup_size;
    parse_stats = result->parsed.parse_stats;
  } else {
    const double cpu_start = CpuSeconds();
    Timer timer;
    auto run = pipeline.RunStreaming(InputPath(files, workload), files.clean, files.removal);
    wall = timer.ElapsedSeconds();
    cpu = CpuSeconds() - cpu_start;
    if (!run.ok()) return Fail("Pipeline::RunStreaming", run.status());
    records = run->stats.original_size;
    statements = run->stats.after_dedup_size;
    parse_stats = run->parsed.parse_stats;
  }
  EmitMetric("wall_s", wall);
  EmitMetric("cpu_s", cpu);
  EmitMetric("records", static_cast<double>(records));
  EmitMetric("peak_rss_bytes", static_cast<double>(SelfPeakRssBytes()));
  EmitMetric("full_parse_ratio", FullParseRatio(parse_stats, statements));
  return 0;
}

int PipelineOracleChild(const ChildArgs& args) {
  const Workload& workload = *args.workload;
  const Files files(args.dir, workload);
  // A second entry point must reproduce the rep's outputs: W1 (in-memory
  // Run) is checked against 1-thread RunStreaming, W3 against 1-thread
  // in-memory Run over its CSV input, and W2 against W1's own run
  // (kSqbReference) over the CSV form of the same log.
  core::PipelineOptions options;
  options.num_threads = 1;
  if (workload.sqb) options = OptionsFor(kSqbReference);
  core::Pipeline pipeline(options);
  pipeline.SetSchema(&Schema());
  if (workload.path == Path::kRun) {
    auto run = pipeline.RunStreaming(files.input_csv, files.ref_clean, files.ref_removal);
    if (!run.ok()) return Fail("reference RunStreaming", run.status());
  } else {
    auto raw = log::LogIo::ReadFile(files.input_csv);
    if (!raw.ok()) return Fail("reference read", raw.status());
    auto result = pipeline.Run(*raw);
    if (!result.ok()) return Fail("reference Run", result.status());
    Status clean = log::LogIo::WriteFile(result->clean_log, files.ref_clean);
    if (!clean.ok()) return Fail("reference write", clean);
    Status removal = log::LogIo::WriteFile(result->removal_log, files.ref_removal);
    if (!removal.ok()) return Fail("reference write", removal);
  }

  // The rep outputs as CSV: `.sqb` outputs are decoded (a CSV → `.sqb` →
  // CSV round trip is byte-identical), CSV outputs are taken as they are.
  if (workload.sqb) {
    for (auto [from, to] : {std::pair{&files.clean, &files.norm_clean},
                            std::pair{&files.removal, &files.norm_removal}}) {
      auto decoded = log::LogIo::ReadFile(*from, log::LogFormat::kSqb);
      if (!decoded.ok()) return Fail("decode", decoded.status());
      Status written = log::LogIo::WriteFile(*decoded, *to);
      if (!written.ok()) return Fail("decode write", written);
    }
  }
  const std::string* norm_clean = workload.sqb ? &files.norm_clean : &files.clean;
  const std::string* norm_removal = workload.sqb ? &files.norm_removal : &files.removal;
  for (auto [name, path] : {std::pair{"ref_clean", &files.ref_clean},
                            std::pair{"ref_removal", &files.ref_removal},
                            std::pair{"norm_clean", norm_clean},
                            std::pair{"norm_removal", norm_removal}}) {
    auto digest = FileDigest(*path);
    if (!digest.ok()) return Fail("digest", digest.status());
    EmitText(name, *digest);
  }
  return 0;
}

}  // namespace sqlog::bench::suite
