#include "core/pipeline.h"

#include <memory>
#include <unordered_set>

#include "core/parse_cache.h"
#include "log/binlog.h"
#include "log/log_io.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sqlog::core {

bool PipelineResult::PatternIsAntipattern(size_t pattern_index, bool solvable_only) const {
  const Pattern& pattern = patterns[pattern_index];
  // A mined pattern is flagged when its template sequence equals the
  // signature of some distinct antipattern. Mere membership of one
  // template in a longer signature does not flag the pattern: a CTH
  // head also used organically stays a pattern.
  for (const auto& d : antipatterns.distinct) {
    if (solvable_only && !antipatterns.detectors->info(d.detector).solvable) continue;
    if (pattern.template_ids == d.template_ids) return true;
  }
  return false;
}

Status ValidatePipelineOptions(const PipelineOptions& options) {
  if (options.dedup.threshold_ms < 0 && !options.dedup.unrestricted) {
    return Status::InvalidArgument("dedup threshold_ms must be >= 0");
  }
  if (options.miner.max_length == 0) {
    return Status::InvalidArgument("miner max_length must be >= 1 (n-gram length)");
  }
  if (options.miner.max_gap_ms < 0) {
    return Status::InvalidArgument("miner max_gap_ms must be >= 0");
  }
  if (options.detector.max_gap_ms < 0) {
    return Status::InvalidArgument("detector max_gap_ms must be >= 0");
  }
  if (options.detector.cth_min_support == 0) {
    return Status::InvalidArgument("detector cth_min_support must be >= 1");
  }
  if (options.sws.frequency_fraction < 0.0 || options.sws.frequency_fraction > 1.0) {
    return Status::InvalidArgument("sws frequency_fraction must be within [0, 1]");
  }
  if (options.sws.max_user_popularity == 0) {
    return Status::InvalidArgument("sws max_user_popularity must be >= 1");
  }
  for (size_t r = 0; r < options.detector.custom_rules.size(); ++r) {
    if (!options.detector.custom_rules[r].detect) {
      return Status::InvalidArgument(
          StrFormat("custom rule #%zu has no detect hook", r));
    }
  }
  // Resolve the detector selection so unknown/duplicate ids surface at
  // validation time rather than mid-run.
  Result<std::shared_ptr<const DetectorSet>> detectors = DetectorSet::Resolve(options.detector);
  if (!detectors.ok()) return detectors.status();
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.streaming) {
    if (options.extra_clean_passes > 0) {
      return Status::InvalidArgument(
          "streaming mode does not support extra_clean_passes (re-cleaning "
          "needs the clean log in memory)");
    }
    if (!options.detector.custom_rules.empty()) {
      return Status::InvalidArgument(
          "streaming mode does not support custom rules (their hooks read "
          "ASTs the streaming parser releases)");
    }
    if (detectors.value()->AnyNeedsAst()) {
      return Status::InvalidArgument(
          "streaming mode does not support detectors that read per-query "
          "ASTs (the streaming parser releases them)");
    }
  }
  return Status::OK();
}

Result<Pipeline> PipelineBuilder::Build() const {
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options_));
  Pipeline pipeline(options_);
  pipeline.SetSchema(schema_);
  return pipeline;
}

namespace {

/// Builds the thread pool for `num_threads` (see PipelineOptions): with
/// one thread no pool exists and every stage takes its serial path;
/// otherwise the pool holds one worker less than the requested count
/// because ParallelFor callers execute chunks themselves.
std::unique_ptr<util::ThreadPool> MakePool(size_t num_threads) {
  size_t threads = util::ResolveThreadCount(num_threads);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads - 1);
}

/// Steps 3-4 + SWS, shared verbatim by the in-memory and streaming
/// paths: mine patterns, detect antipatterns, detect SWS, and fill the
/// overview statistics.
void AnalyzeParsed(const PipelineOptions& options, const catalog::Schema* schema,
                   util::ThreadPool* pool, const ParsedLog& parsed,
                   const TemplateStore& templates,
                   std::shared_ptr<const DetectorSet> detectors,
                   std::vector<Pattern>& patterns, AntipatternReport& antipatterns,
                   SwsReport& sws, PipelineStats& stats) {
  // Step 3 (Sec. 5.4): mine patterns.
  if (options.mine_patterns) {
    patterns = MinePatterns(parsed, options.miner, pool);
    SortByFrequency(patterns);
    stats.pattern_count = patterns.size();
    if (!patterns.empty()) {
      stats.max_pattern_frequency = patterns.front().frequency;
    }
  }

  // Step 4: detect antipatterns.
  antipatterns = DetectAntipatterns(parsed, templates, schema, options.detector,
                                    std::move(detectors), pool);
  // One Table 5 row pair per detector of the set, in set order.
  const DetectorSet& set = *antipatterns.detectors;
  for (uint32_t d = 0; d < set.size(); ++d) {
    const DetectorInfo& info = set.info(d);
    PipelineStats::DetectorRow row;
    row.id = info.id;
    row.label = info.display_name;
    row.distinct_count = antipatterns.DistinctOf(info.id);
    row.query_count = antipatterns.QueriesOf(info.id);
    stats.detectors.push_back(std::move(row));
  }

  // SWS detection (Sec. 6.5) over the mined patterns.
  if (options.mine_patterns) {
    sws = DetectSws(patterns, parsed.queries.size(), options.sws);
  }
}

}  // namespace

Result<PipelineResult> Pipeline::Run(const log::QueryLog& raw_log) const {
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options_));
  Result<std::shared_ptr<const DetectorSet>> detectors =
      DetectorSet::Resolve(options_.detector);
  if (!detectors.ok()) return detectors.status();  // unreachable post-validation

  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options_.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  PipelineResult result;
  result.stats.original_size = raw_log.size();

  // Step 1 (Sec. 5.2): delete duplicates.
  log::QueryLog working = raw_log;
  if (!options_.use_user_metadata) {
    for (auto& record : working.records()) {
      record.user.clear();
      record.session.clear();
    }
  }
  DedupStats dedup_stats;
  result.pre_clean = RemoveDuplicates(working, options_.dedup, &dedup_stats, pool);
  result.stats.after_dedup_size = dedup_stats.output_count;
  result.stats.duplicates_removed = dedup_stats.removed_count;

  // Step 2 (Sec. 5.3): parse statements, build templates. AST-reading
  // detectors (legacy custom rules) force the cache off: their hooks
  // read per-query ASTs, which cache hits never build.
  ParseCacheOptions cache_options;
  cache_options.enabled = options_.parse_cache && !detectors.value()->AnyNeedsAst();
  result.parsed = ParseLog(result.pre_clean, result.templates, pool,
                           options_.max_parse_diagnostics, cache_options);
  result.stats.select_count = result.parsed.queries.size();
  result.stats.non_select_count = result.parsed.non_select_count;
  result.stats.syntax_error_count = result.parsed.syntax_error_count;
  result.stats.parse_diagnostics = result.parsed.diagnostics;

  // Steps 3-4 + SWS (shared with the streaming path).
  AnalyzeParsed(options_, schema_, pool, result.parsed, result.templates,
                detectors.value(), result.patterns, result.antipatterns, result.sws,
                result.stats);

  // Step 5 (Sec. 5.5): solve antipatterns.
  SolveOutcome outcome =
      SolveAntipatterns(result.pre_clean, result.parsed, result.antipatterns);
  SQLOG_RETURN_IF_ERROR_R(outcome.status);
  result.clean_log = std::move(outcome.clean_log);
  result.removal_log = std::move(outcome.removal_log);
  result.stats.solve = outcome.stats;

  // Optional re-clean passes (Sec. 5.5). Statistics keep describing the
  // first pass — only the clean log is refined further.
  for (size_t pass = 0; pass < options_.extra_clean_passes; ++pass) {
    TemplateStore pass_templates;
    ParsedLog pass_parsed =
        ParseLog(result.clean_log, pass_templates, pool, /*max_diagnostics=*/0, cache_options);
    AntipatternReport pass_report = DetectAntipatterns(
        pass_parsed, pass_templates, schema_, options_.detector, detectors.value(), pool);
    uint64_t solvable = 0;
    for (const auto& instance : pass_report.instances) {
      if (pass_report.detectors->Solvable(instance)) ++solvable;
    }
    if (solvable == 0) break;
    SolveOutcome pass_outcome = SolveAntipatterns(result.clean_log, pass_parsed, pass_report);
    SQLOG_RETURN_IF_ERROR_R(pass_outcome.status);
    result.clean_log = std::move(pass_outcome.clean_log);
  }

  result.stats.final_size = result.clean_log.size();
  result.stats.removal_size = result.removal_log.size();

  return result;
}

Result<StreamingRunResult> Pipeline::RunStreaming(const std::string& input_path,
                                                  const std::string& clean_path,
                                                  const std::string& removal_path) const {
  PipelineOptions options = options_;
  options.streaming = true;  // enforce the streaming-mode restrictions
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options));
  Result<std::shared_ptr<const DetectorSet>> detectors =
      DetectorSet::Resolve(options.detector);
  if (!detectors.ok()) return detectors.status();  // unreachable post-validation

  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  StreamingRunResult result;

  // Pass 1: read + dedup + parse, one batch at a time. The in-memory
  // path sorts by (timestamp, seq) before dedup; streaming replays that
  // scan in file order, so the file must already be sorted — generated
  // and exported logs are, arbitrary inputs are checked.
  auto input_format = log::ResolveReadFormat(options.input_format, input_path);
  SQLOG_RETURN_IF_ERROR_R(input_format.status());
  StreamingDeduper deduper(options.dedup);
  ParseCacheOptions cache_options;
  // Validation rejected AST-reading detectors in streaming mode, so the
  // cache can always be honoured here.
  cache_options.enabled = options.parse_cache;
  StreamingParser parser(result.templates, options.max_parse_diagnostics, pool,
                         cache_options);
  std::unique_ptr<log::RecordReader> reader_owned;
  log::BinLogReader* bin_reader = nullptr;  // non-null: shaped fast ingest
  if (*input_format == log::LogFormat::kSqb) {
    // A binary input carries its template dictionary up front: seed the
    // parser's persistent cache from the stored recipes, so every
    // record whose template validated ingests without a full parse.
    // Record shapes then let the parser skip lexing too (zero-lex path).
    auto bin = std::make_unique<log::BinLogReader>();
    SQLOG_RETURN_IF_ERROR_R(bin->Open(input_path));
    std::vector<std::unique_ptr<ParseCacheEntry>> seeds;
    seeds.reserve(bin->dictionary().size());
    for (const auto& entry : bin->dictionary()) {
      seeds.push_back(DeserializeStatementRecipe(entry.text, entry.recipe));
    }
    parser.SeedCache(std::move(seeds));
    // Upper bound (dedup may drop records), so the query vector never
    // realloc-moves during ingest.
    parser.ReserveQueries(bin->record_count());
    bin_reader = bin.get();
    reader_owned = std::move(bin);
  } else {
    reader_owned = std::make_unique<log::LogReader>();
    SQLOG_RETURN_IF_ERROR_R(reader_owned->Open(input_path));
  }
  log::RecordReader& reader = *reader_owned;
  std::vector<uint8_t> kept;  // per raw record, consulted by pass 2
  std::vector<log::LogRecord> batch;
  // Shape pool parallel to batch (`.sqb` only): the live prefix is
  // overwritten in place so span vectors keep capacity across batches.
  std::vector<log::RecordShape> batch_shapes;
  size_t batch_shape_count = 0;
  log::LogRecord record;
  bool eof = false;
  bool have_previous = false;
  int64_t previous_ts = 0;
  uint64_t previous_seq = 0;
  uint64_t raw_count = 0;
  uint64_t pre_clean_count = 0;
  while (true) {
    SQLOG_RETURN_IF_ERROR_R(reader.ReadRecord(&record, &eof));
    if (eof) break;
    ++raw_count;
    if (!options.use_user_metadata) {
      record.user.clear();
      record.session.clear();
    }
    if (have_previous &&
        (record.timestamp_ms < previous_ts ||
         (record.timestamp_ms == previous_ts && record.seq < previous_seq))) {
      return Status::InvalidArgument(StrFormat(
          "streaming mode requires a (timestamp, seq)-ordered input; record "
          "%llu (seq %llu) is out of order — run the in-memory pipeline instead",
          (unsigned long long)raw_count, (unsigned long long)record.seq));
    }
    previous_ts = record.timestamp_ms;
    previous_seq = record.seq;
    have_previous = true;
    bool duplicate = deduper.IsDuplicate(record);
    kept.push_back(duplicate ? 0 : 1);
    if (duplicate) continue;
    // Replicate RemoveDuplicates's Renumber(): pre-clean seqs are
    // positional (parse diagnostics echo them).
    record.seq = pre_clean_count++;
    if (bin_reader != nullptr) {
      if (batch_shape_count == batch_shapes.size()) batch_shapes.emplace_back();
      batch_shapes[batch_shape_count++].CopyFrom(bin_reader->last_shape());
    }
    batch.push_back(std::move(record));
    if (batch.size() >= options.batch_size) {
      parser.FeedBatch(batch, bin_reader != nullptr ? &batch_shapes : nullptr);
      batch.clear();
      batch_shape_count = 0;
    }
  }
  parser.FeedBatch(batch, bin_reader != nullptr ? &batch_shapes : nullptr);
  batch.clear();
  batch.shrink_to_fit();
  result.parsed = parser.Finish();

  result.stats.original_size = raw_count;
  result.stats.after_dedup_size = pre_clean_count;
  result.stats.duplicates_removed = deduper.duplicates_seen();
  result.stats.select_count = result.parsed.queries.size();
  result.stats.non_select_count = result.parsed.non_select_count;
  result.stats.syntax_error_count = result.parsed.syntax_error_count;
  result.stats.parse_diagnostics = result.parsed.diagnostics;

  // Steps 3-4 + SWS run on the compact AST-free state, unchanged.
  AnalyzeParsed(options, schema_, pool, result.parsed, result.templates,
                detectors.value(), result.patterns, result.antipatterns, result.sws,
                result.stats);

  // Pass 2: re-read the input, skip the duplicates found in pass 1, and
  // solve + emit the clean/removal logs incrementally. Output format
  // resolves per path (kAuto: by extension), so `clean.sqb` +
  // `removal.csv` is a valid combination; `.sqb` outputs store recipes
  // so they re-ingest parse-free.
  std::unique_ptr<log::RecordWriter> clean_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options.output_format, clean_path),
      /*renumber=*/true, BuildStatementRecipe);  // outputs are renumbered
  std::unique_ptr<log::RecordWriter> removal_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options.output_format, removal_path),
      /*renumber=*/true, BuildStatementRecipe);
  SQLOG_RETURN_IF_ERROR_R(clean_writer->Open(clean_path));
  SQLOG_RETURN_IF_ERROR_R(removal_writer->Open(removal_path));
  StreamingSolver solver(result.parsed, result.antipatterns, *clean_writer,
                         *removal_writer);
  auto second_reader_owned = log::LogIo::OpenLogReader(input_path, *input_format);
  SQLOG_RETURN_IF_ERROR_R(second_reader_owned.status());
  log::RecordReader& second_reader = **second_reader_owned;
  uint64_t second_count = 0;
  while (true) {
    SQLOG_RETURN_IF_ERROR_R(second_reader.ReadRecord(&record, &eof));
    if (eof) break;
    if (second_count >= raw_count) {
      return Status::Internal("input grew between streaming passes");
    }
    if (!options.use_user_metadata) {
      record.user.clear();
      record.session.clear();
    }
    if (kept[second_count] != 0) {
      SQLOG_RETURN_IF_ERROR_R(solver.Feed(record));
    }
    ++second_count;
  }
  if (second_count != raw_count) {
    return Status::Internal("input shrank between streaming passes");
  }
  SQLOG_RETURN_IF_ERROR_R(solver.Finish());
  SQLOG_RETURN_IF_ERROR_R(clean_writer->Close());
  SQLOG_RETURN_IF_ERROR_R(removal_writer->Close());

  result.stats.solve = solver.stats();
  result.stats.final_size = clean_writer->records_written();
  result.stats.removal_size = removal_writer->records_written();
  return result;
}

}  // namespace sqlog::core
