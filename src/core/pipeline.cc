#include "core/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>

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

namespace {

/// Every check of ValidatePipelineOptions, in order. Resolving the
/// detector selection is one of them (unknown or duplicate ids surface
/// here rather than mid-run), so the resolved set is handed back and
/// each entry point resolves it once per call.
Result<std::shared_ptr<const DetectorSet>> ValidateAndResolveDetectors(
    const PipelineOptions& options) {
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
  auto detectors = DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR_R(detectors.status());
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  return detectors;
}

}  // namespace

Status ValidatePipelineOptions(const PipelineOptions& options) {
  return ValidateAndResolveDetectors(options).status();
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

/// Serves an in-memory log in stable (timestamp, seq) order — the order
/// pass 1 requires — through an index permutation, so Run reads its
/// input without copying it whole.
class SortedLogReader final : public log::RecordReader {
 public:
  explicit SortedLogReader(const log::QueryLog& log)
      : records_(log.records()), order_(records_.size()) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      return std::pair(records_[a].timestamp_ms, records_[a].seq) <
             std::pair(records_[b].timestamp_ms, records_[b].seq);
    });
  }

  Status Open(const std::string&) override { return Status::OK(); }
  Status ReadRecord(log::LogRecord* record, bool* eof) override {
    *eof = next_ == order_.size();
    if (!*eof) *record = records_[order_[next_++]];
    return Status::OK();
  }
  uint64_t records_read() const override { return next_; }

 private:
  const std::vector<log::LogRecord>& records_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Pass 1 of both entry points, steps 1-2 of Fig. 1 (Sec. 5.2-5.3):
/// reads `reader` to the end in the (timestamp, seq) order dedup relies
/// on, strips the user/session columns when the options ignore them,
/// drops duplicates, renumbers the kept records to their pre-clean
/// positions, and parses them in batches of `batch_size`. Appends one
/// kept flag per raw record to `kept` (nullable), leaves the last batch
/// in `batch` — all of the pre-clean log when one batch holds it — and
/// fills the dedup and parse statistics. The deduper, the parser and its
/// cache are freed on return.
Status DedupAndParse(const PipelineOptions& options, const DetectorSet& detectors,
                     util::ThreadPool* pool, log::RecordReader& reader, size_t batch_size,
                     TemplateStore& templates, ParsedLog& parsed, PipelineStats& stats,
                     std::vector<uint8_t>* kept, std::vector<log::LogRecord>& batch) {
  // AST-reading detectors (legacy custom rules) keep the ASTs the parser
  // builds and force the cache off: cache hits never build ASTs.
  const bool needs_ast = detectors.AnyNeedsAst();
  ParseCacheOptions cache_options;
  cache_options.enabled = options.parse_cache && !needs_ast;
  StreamingParser parser(templates, options.max_parse_diagnostics, pool, cache_options,
                         needs_ast);
  const auto* bin = dynamic_cast<const log::BinLogReader*>(&reader);
  if (bin != nullptr) {
    // A binary input carries its template dictionary up front: seed the
    // parser's persistent cache from the stored recipes, so every
    // record whose template validated ingests without a full parse.
    // Record shapes then let the parser skip lexing too (zero-lex path).
    std::vector<std::unique_ptr<ParseCacheEntry>> seeds;
    seeds.reserve(bin->dictionary().size());
    for (const auto& entry : bin->dictionary()) {
      seeds.push_back(DeserializeStatementRecipe(entry.text, entry.recipe));
    }
    parser.SeedCache(std::move(seeds));
    // Upper bound (dedup may drop records), so the query vector never
    // realloc-moves during ingest.
    parser.ReserveQueries(bin->record_count());
  }
  StreamingDeduper deduper(options.dedup);
  // Shape pool parallel to batch (`.sqb` only): the live prefix is
  // overwritten in place so span vectors keep capacity across batches.
  std::vector<log::RecordShape> shapes;
  size_t shape_count = 0;
  log::LogRecord record;
  bool eof = false;
  uint64_t pre_clean_count = 0;
  std::pair<int64_t, uint64_t> previous(INT64_MIN, 0);  // (timestamp, seq)
  while (true) {
    SQLOG_RETURN_IF_ERROR(reader.ReadRecord(&record, &eof));
    if (eof) break;
    const std::pair<int64_t, uint64_t> position(record.timestamp_ms, record.seq);
    if (position < previous) {
      return Status::InvalidArgument(StrFormat(
          "streaming mode requires a (timestamp, seq)-ordered input; record "
          "%llu (seq %llu) is out of order — run the in-memory pipeline instead",
          (unsigned long long)deduper.records_seen() + 1, (unsigned long long)record.seq));
    }
    previous = position;
    if (!options.use_user_metadata) {
      record.user.clear();
      record.session.clear();
    }
    bool duplicate = deduper.IsDuplicate(record);
    if (kept != nullptr) kept->push_back(duplicate ? 0 : 1);
    if (duplicate) continue;
    // Pre-clean seqs are positional (parse diagnostics echo them).
    record.seq = pre_clean_count++;
    if (bin != nullptr) {
      if (shape_count == shapes.size()) shapes.emplace_back();
      shapes[shape_count++].CopyFrom(bin->last_shape());
    }
    batch.push_back(std::move(record));
    if (batch.size() >= batch_size) {
      parser.FeedBatch(batch, bin != nullptr ? &shapes : nullptr);
      batch.clear();
      shape_count = 0;
    }
  }
  parser.FeedBatch(batch, bin != nullptr ? &shapes : nullptr);
  parsed = parser.Finish();

  stats.original_size = deduper.records_seen();
  stats.after_dedup_size = pre_clean_count;
  stats.duplicates_removed = deduper.duplicates_seen();
  stats.select_count = parsed.queries.size();
  stats.non_select_count = parsed.non_select_count;
  stats.syntax_error_count = parsed.syntax_error_count;
  stats.parse_diagnostics = parsed.diagnostics;
  return Status::OK();
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
    patterns = MinePatterns(parsed, options.miner);
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
  auto detectors = ValidateAndResolveDetectors(options_);
  SQLOG_RETURN_IF_ERROR_R(detectors.status());
  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options_.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  // Steps 1-2: pass 1 over the time-sorted log as one parse batch, which
  // leaves the whole pre-clean log in `result.pre_clean`.
  PipelineResult result;
  SortedLogReader reader(raw_log);
  result.pre_clean.records().reserve(raw_log.size());
  SQLOG_RETURN_IF_ERROR_R(DedupAndParse(options_, **detectors, pool, reader, SIZE_MAX,
                                        result.templates, result.parsed, result.stats,
                                        /*kept=*/nullptr, result.pre_clean.records()));

  // Steps 3-4 + SWS (shared with the streaming path).
  AnalyzeParsed(options_, schema_, pool, result.parsed, result.templates, *detectors,
                result.patterns, result.antipatterns, result.sws, result.stats);

  // Step 5 (Sec. 5.5): solve antipatterns.
  SolveOutcome outcome =
      SolveAntipatterns(result.pre_clean, result.parsed, result.antipatterns);
  SQLOG_RETURN_IF_ERROR_R(outcome.status);
  result.clean_log = std::move(outcome.clean_log);
  result.removal_log = std::move(outcome.removal_log);
  result.stats.solve = outcome.stats;
  result.stats.final_size = result.clean_log.size();
  result.stats.removal_size = result.removal_log.size();
  return result;
}

Result<StreamingRunResult> Pipeline::RunStreaming(const std::string& input_path,
                                                  const std::string& clean_path,
                                                  const std::string& removal_path) const {
  auto detectors = ValidateAndResolveDetectors(options_);
  SQLOG_RETURN_IF_ERROR_R(detectors.status());
  // Pass 2 opens the writers before it re-reads the input: an output
  // that aliases the input (or the other output) would truncate it.
  SQLOG_RETURN_IF_ERROR_R(log::RequireDistinctFiles(
      {{"input", input_path}, {"clean output", clean_path}, {"removal output", removal_path}}));
  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options_.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  StreamingRunResult result;

  // Pass 1: read + dedup + parse, one batch at a time. The input file
  // must already be (timestamp, seq)-ordered — generated and exported
  // logs are, arbitrary inputs are checked.
  auto input_format = log::ResolveReadFormat(options_.input_format, input_path);
  SQLOG_RETURN_IF_ERROR_R(input_format.status());
  std::vector<uint8_t> kept;  // per raw record, consulted by pass 2
  {
    auto reader = log::LogIo::OpenLogReader(input_path, *input_format);
    SQLOG_RETURN_IF_ERROR_R(reader.status());
    std::vector<log::LogRecord> batch;
    SQLOG_RETURN_IF_ERROR_R(DedupAndParse(options_, **detectors, pool, **reader,
                                          options_.batch_size, result.templates,
                                          result.parsed, result.stats, &kept, batch));
  }

  // Steps 3-4 + SWS run on the compact parsed state, unchanged.
  AnalyzeParsed(options_, schema_, pool, result.parsed, result.templates, *detectors,
                result.patterns, result.antipatterns, result.sws, result.stats);

  // Pass 2: re-read the input, skip the duplicates found in pass 1, and
  // solve + emit the clean/removal logs incrementally. Output format
  // resolves per path (kAuto: by extension), so `clean.sqb` +
  // `removal.csv` is a valid combination; `.sqb` outputs store recipes
  // so they re-ingest parse-free. A `.sqb` input hands each record's
  // shape to the solver, so `.sqb` outputs re-encode pass-through
  // records without lexing them.
  std::unique_ptr<log::RecordWriter> clean_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options_.output_format, clean_path),
      /*renumber=*/true, BuildStatementRecipe);  // outputs are renumbered
  std::unique_ptr<log::RecordWriter> removal_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options_.output_format, removal_path),
      /*renumber=*/true, BuildStatementRecipe);
  SQLOG_RETURN_IF_ERROR_R(clean_writer->Open(clean_path));
  SQLOG_RETURN_IF_ERROR_R(removal_writer->Open(removal_path));
  StreamingSolver solver(result.parsed, result.antipatterns, *clean_writer,
                         *removal_writer);
  auto reader = log::LogIo::OpenLogReader(input_path, *input_format);
  SQLOG_RETURN_IF_ERROR_R(reader.status());
  const auto* bin = dynamic_cast<const log::BinLogReader*>(reader->get());
  for (log::RecordWriter* writer : {clean_writer.get(), removal_writer.get()}) {
    if (auto* bin_writer = dynamic_cast<log::BinLogWriter*>(writer)) {
      bin_writer->SetSource(bin);
    }
  }
  log::LogRecord record;
  bool eof = false;
  uint64_t count = 0;
  while (true) {
    SQLOG_RETURN_IF_ERROR_R((*reader)->ReadRecord(&record, &eof));
    if (eof) break;
    if (count == kept.size()) return Status::Internal("input grew between streaming passes");
    if (kept[count++] == 0) continue;
    if (!options_.use_user_metadata) {
      record.user.clear();
      record.session.clear();
    }
    SQLOG_RETURN_IF_ERROR_R(
        solver.Feed(record, bin != nullptr ? bin->last_shape() : nullptr));
  }
  if (count != kept.size()) {
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
